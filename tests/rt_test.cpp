// Tests of the real-time (thread-backed) runtime hosting the identical
// worker protocol. Runs are nondeterministic; assertions target protocol
// correctness (optimum, termination, crash survival), never timing.
#include <gtest/gtest.h>

#include "bnb/basic_tree.hpp"
#include "bnb/knapsack.hpp"
#include "fault/schedule.hpp"
#include "rt/runtime.hpp"
#include "sim/fault_plan.hpp"

namespace ftbb::rt {
namespace {

using bnb::BasicTree;
using bnb::RandomTreeConfig;
using bnb::TreeProblem;
using core::WorkItem;

RtConfig fast_config(std::uint32_t workers, std::uint64_t seed) {
  RtConfig cfg;
  cfg.workers = workers;
  cfg.seed = seed;
  cfg.wall_timeout = 90.0;
  cfg.time_scale = 1.0;
  cfg.worker.report_batch = 4;
  cfg.worker.report_flush_interval = 0.02;
  cfg.worker.table_gossip_interval = 0.05;
  cfg.worker.work_request_timeout = 0.01;
  cfg.worker.idle_backoff = 0.004;
  cfg.worker.initial_stagger = 0.002;
  return cfg;
}

BasicTree tiny_tree(std::uint64_t seed, std::uint64_t nodes = 401) {
  RandomTreeConfig cfg;
  cfg.target_nodes = nodes;
  cfg.seed = seed;
  cfg.cost_mean = 1e-4;  // ~40 ms of total virtual work
  return BasicTree::random(cfg);
}

TEST(Rt, SingleThreadSolves) {
  const BasicTree tree = tiny_tree(1, 201);
  TreeProblem problem(&tree);
  const RtResult res = Cluster::run(problem, fast_config(1, 1));
  EXPECT_FALSE(res.hit_time_limit);
  ASSERT_TRUE(res.all_live_halted);
  EXPECT_DOUBLE_EQ(res.solution, tree.optimal_value());
}

TEST(Rt, FourThreadsSolveTree) {
  const BasicTree tree = tiny_tree(2);
  TreeProblem problem(&tree);
  const RtResult res = Cluster::run(problem, fast_config(4, 2));
  EXPECT_FALSE(res.hit_time_limit);
  ASSERT_TRUE(res.all_live_halted);
  EXPECT_DOUBLE_EQ(res.solution, tree.optimal_value());
  EXPECT_GT(res.net.messages_delivered, 0u);
}

TEST(Rt, KnapsackMatchesDp) {
  const auto inst = bnb::KnapsackInstance::strongly_correlated(14, 50, 0.5, 3);
  bnb::NodeCostModel cost;
  cost.mean = 1e-4;
  bnb::KnapsackModel model(inst, cost);
  ASSERT_TRUE(model.known_optimal().has_value());
  const RtResult res = Cluster::run(model, fast_config(4, 3));
  ASSERT_TRUE(res.all_live_halted);
  EXPECT_DOUBLE_EQ(res.solution, *model.known_optimal());
}

TEST(Rt, SurvivesWorkerCrashes) {
  const BasicTree tree = tiny_tree(4, 801);
  TreeProblem problem(&tree);
  RtConfig cfg = fast_config(4, 4);
  // Kill two workers early, while work is still spreading.
  cfg.faults.crashes = {{1, 0.01}, {3, 0.02}};
  const RtResult res = Cluster::run(problem, cfg);
  EXPECT_FALSE(res.hit_time_limit);
  ASSERT_TRUE(res.all_live_halted);
  EXPECT_DOUBLE_EQ(res.solution, tree.optimal_value());
  EXPECT_TRUE(res.crashed[1]);
  EXPECT_TRUE(res.crashed[3]);
  EXPECT_EQ(res.reaped, res.work[WorkItem::kIncarnations]);
}

TEST(Rt, SurvivesMessageLoss) {
  const BasicTree tree = tiny_tree(5);
  TreeProblem problem(&tree);
  RtConfig cfg = fast_config(3, 5);
  cfg.net.loss_prob = 0.1;
  const RtResult res = Cluster::run(problem, cfg);
  EXPECT_FALSE(res.hit_time_limit);
  ASSERT_TRUE(res.all_live_halted);
  EXPECT_DOUBLE_EQ(res.solution, tree.optimal_value());
}

TEST(Rt, LatencyDelaysDoNotBreakCorrectness) {
  const BasicTree tree = tiny_tree(6);
  TreeProblem problem(&tree);
  RtConfig cfg = fast_config(3, 6);
  cfg.net.latency_fixed = 0.002;
  cfg.net.latency_per_byte = 1e-7;
  const RtResult res = Cluster::run(problem, cfg);
  EXPECT_FALSE(res.hit_time_limit);
  ASSERT_TRUE(res.all_live_halted);
  EXPECT_DOUBLE_EQ(res.solution, tree.optimal_value());
}

TEST(Rt, CrashedWorkerRejoinsAsFreshIncarnation) {
  // Big enough (~0.4s of virtual work) that the crash lands mid-search on
  // any scheduler interleaving, never after termination.
  const BasicTree tree = tiny_tree(8, 4001);
  TreeProblem problem(&tree);
  RtConfig cfg = fast_config(4, 8);
  // Worker 1 bounces: killed early, back 100 ms later as a new incarnation
  // that re-enters through the normal load-balancing path.
  cfg.faults.crashes = {{1, 0.02}};
  cfg.faults.revives = {{1, 0.12}};
  const RtResult res = Cluster::run(problem, cfg);
  EXPECT_FALSE(res.hit_time_limit);
  ASSERT_TRUE(res.all_live_halted);
  EXPECT_DOUBLE_EQ(res.solution, tree.optimal_value());
  EXPECT_TRUE(res.crashed[1]);
  // The bounce spawned a second incarnation and both threads were reaped.
  EXPECT_GE(res.worker_ledgers[1][WorkItem::kIncarnations], 2u);
  EXPECT_EQ(res.reaped, res.work[WorkItem::kIncarnations]);
}

TEST(Rt, ChurnArrivalsJoinLate) {
  const BasicTree tree = tiny_tree(9, 801);
  TreeProblem problem(&tree);
  RtConfig cfg = fast_config(2, 9);
  // Two extra members trickle in while the original pair is mid-search.
  sim::FaultPlan plan;
  plan.churn(2, 2, 0.02, 0.03);
  cfg.faults = fault::FaultSchedule::compile(plan, cfg.workers);
  const RtResult res = Cluster::run(problem, cfg);
  EXPECT_FALSE(res.hit_time_limit);
  ASSERT_TRUE(res.all_live_halted);
  EXPECT_DOUBLE_EQ(res.solution, tree.optimal_value());
  ASSERT_EQ(res.worker_ledgers.size(), 4u);  // population grew to 4
  EXPECT_EQ(res.reaped, res.work[WorkItem::kIncarnations]);
}

TEST(Rt, WindowedLinkLossAndPartitionReplay) {
  const BasicTree tree = tiny_tree(10, 801);
  TreeProblem problem(&tree);
  RtConfig cfg = fast_config(4, 10);
  sim::FaultPlan plan;
  plan.link_loss(0, 1, 0.0, 0.2, 0.6);
  plan.split_halves(0.02, 0.1);
  cfg.faults = fault::FaultSchedule::compile(plan, cfg.workers);
  const RtResult res = Cluster::run(problem, cfg);
  EXPECT_FALSE(res.hit_time_limit);
  ASSERT_TRUE(res.all_live_halted);
  EXPECT_DOUBLE_EQ(res.solution, tree.optimal_value());
}

TEST(Rt, StatsAreCollected) {
  const BasicTree tree = tiny_tree(7);
  TreeProblem problem(&tree);
  const RtResult res = Cluster::run(problem, fast_config(3, 7));
  ASSERT_TRUE(res.all_live_halted);
  ASSERT_EQ(res.worker_ledgers.size(), 3u);
  core::WorkLedger sum;
  for (const core::WorkLedger& w : res.worker_ledgers) {
    EXPECT_GE(w.time(core::CostKind::kBB), 0.0);
    sum.add(w);
  }
  // Every node of the tree was expanded at least once (bounds honored, so
  // some are eliminated; at minimum the feasible optimum path was walked).
  EXPECT_GT(sum[WorkItem::kExpansions], 0u);
  // The cluster ledger is the member-order sum of the members' ledgers once
  // the expansion account's redundant count and cost are filled in, and it
  // counts one life per incarnation thread spawned and reaped. Both hold
  // wherever a fault lands.
  sum[WorkItem::kRedundantExpansions] = res.redundant_expansions;
  sum.redundant_seconds = res.redundant_cost;
  EXPECT_EQ(sum.fingerprint(), res.work.fingerprint());
  EXPECT_EQ(res.work[WorkItem::kIncarnations], res.reaped);
}

}  // namespace
}  // namespace ftbb::rt
