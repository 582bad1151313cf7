// End-to-end tests of the decentralized fault-tolerant B&B in the simulator.
//
// The paper's headline guarantee (Sections 5.5, 7): the loss of up to all
// but one resource does not affect the quality of the solution, and the
// computation still terminates correctly — also under message loss and
// temporary partitions. These tests assert exactly that, across seeds and
// failure schedules.
#include <gtest/gtest.h>

#include "bnb/basic_tree.hpp"
#include "bnb/knapsack.hpp"
#include "bnb/sequential.hpp"
#include "sim/cluster.hpp"

namespace ftbb::sim {
namespace {

using bnb::BasicTree;
using bnb::RandomTreeConfig;
using bnb::TreeProblem;
using core::WorkItem;

/// Small tree + tight protocol timings so virtual runs stay fast.
core::WorkerConfig fast_worker_config() {
  core::WorkerConfig w;
  w.report_batch = 4;
  w.report_flush_interval = 0.05;
  w.report_fanout = 2;
  w.table_gossip_interval = 0.2;
  w.work_request_timeout = 0.02;
  w.idle_backoff = 0.005;
  w.initial_stagger = 0.002;
  w.attempts_before_recovery = 3;
  return w;
}

BasicTree test_tree(std::uint64_t seed, std::uint64_t nodes = 1001,
                    double cost_mean = 2e-3) {
  RandomTreeConfig cfg;
  cfg.target_nodes = nodes;
  cfg.seed = seed;
  cfg.cost_mean = cost_mean;
  cfg.feasible_leaf_fraction = 0.3;
  return BasicTree::random(cfg);
}

ClusterConfig base_config(std::uint32_t workers, std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.workers = workers;
  cfg.worker = fast_worker_config();
  cfg.seed = seed;
  cfg.time_limit = 300.0;
  cfg.storage_sample_interval = 0.05;
  return cfg;
}

void expect_solved(const ClusterResult& res, double optimal) {
  EXPECT_TRUE(res.all_live_halted);
  EXPECT_FALSE(res.hit_time_limit);
  EXPECT_FALSE(res.hit_event_limit);
  ASSERT_TRUE(res.solution_found);
  EXPECT_DOUBLE_EQ(res.solution, optimal);
}

TEST(Cluster, SingleWorkerSolvesAlone) {
  const BasicTree tree = test_tree(1, 301);
  TreeProblem problem(&tree);
  const ClusterResult res = SimCluster::run(problem, base_config(1, 1));
  expect_solved(res, tree.optimal_value());
  EXPECT_EQ(res.redundant_expansions, 0u);
}

TEST(Cluster, FourWorkersSolveTreeProblem) {
  const BasicTree tree = test_tree(2);
  TreeProblem problem(&tree);
  const ClusterResult res = SimCluster::run(problem, base_config(4, 2));
  expect_solved(res, tree.optimal_value());
  // Work spread: most workers expanded something (with elimination the
  // effective tree can be too small to reach everyone before it is done).
  int active = 0;
  for (const core::WorkLedger& w : res.worker_ledgers) {
    active += w[WorkItem::kExpansions] > 0 ? 1 : 0;
  }
  EXPECT_GE(active, 3);
}

TEST(Cluster, EveryLiveWorkerDetectsTermination) {
  const BasicTree tree = test_tree(3);
  TreeProblem problem(&tree);
  const ClusterResult res = SimCluster::run(problem, base_config(5, 3));
  ASSERT_TRUE(res.all_live_halted);
  ASSERT_EQ(res.halted_at.size(), 5u);
  for (const double t : res.halted_at) EXPECT_GE(t, 0.0);
}

TEST(Cluster, DistributedKnapsackMatchesDp) {
  const auto inst = bnb::KnapsackInstance::strongly_correlated(16, 50, 0.5, 7);
  bnb::NodeCostModel cost;
  cost.mean = 1e-3;
  bnb::KnapsackModel model(inst, cost);
  ASSERT_TRUE(model.known_optimal().has_value());
  const ClusterResult res = SimCluster::run(model, base_config(4, 7));
  expect_solved(res, *model.known_optimal());
}

TEST(Cluster, DeterministicForSeed) {
  const BasicTree tree = test_tree(4);
  TreeProblem problem(&tree);
  const ClusterResult a = SimCluster::run(problem, base_config(4, 11));
  const ClusterResult b = SimCluster::run(problem, base_config(4, 11));
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_expanded, b.total_expanded);
  EXPECT_EQ(a.net.messages_sent, b.net.messages_sent);
  EXPECT_EQ(a.net.bytes_sent, b.net.bytes_sent);
}

TEST(Cluster, SpeedupOverOneWorker) {
  const BasicTree tree = test_tree(5, 2001);
  TreeProblem problem(&tree, /*honor_bounds=*/false);  // fixed work => clean speedup
  const ClusterResult one = SimCluster::run(problem, base_config(1, 5));
  const ClusterResult eight = SimCluster::run(problem, base_config(8, 5));
  ASSERT_TRUE(one.all_live_halted);
  ASSERT_TRUE(eight.all_live_halted);
  EXPECT_LT(eight.makespan, one.makespan / 2.0);
}

TEST(Cluster, SequentialAgreesWithDistributed) {
  const BasicTree tree = test_tree(6);
  TreeProblem problem(&tree);
  const bnb::SeqResult seq = bnb::solve_sequential(problem);
  const ClusterResult res = SimCluster::run(problem, base_config(3, 6));
  expect_solved(res, seq.best_value);
}

TEST(Cluster, ReportsAreCompressed) {
  const BasicTree tree = test_tree(7, 2001);
  TreeProblem problem(&tree, /*honor_bounds=*/false);
  const ClusterResult res = SimCluster::run(problem, base_config(4, 7));
  ASSERT_TRUE(res.all_live_halted);
  // Code compression: fewer codes cross the wire than completions occur.
  EXPECT_LT(res.work[WorkItem::kReportCodesSent], res.work[WorkItem::kCompletions]);
}

TEST(Cluster, LargerReportBatchesCompressBetter) {
  // Section 5.3.2: "the compression rate is better when processors are
  // sufficiently loaded" — i.e. when more completions accumulate per report,
  // sibling merges collapse taller completed subtrees.
  const BasicTree tree = test_tree(7, 2001);
  TreeProblem problem(&tree, /*honor_bounds=*/false);
  ClusterConfig small_batch = base_config(4, 7);
  small_batch.worker.report_batch = 2;
  ClusterConfig large_batch = base_config(4, 7);
  large_batch.worker.report_batch = 64;
  large_batch.worker.report_flush_interval = 10.0;  // let batches fill
  const ClusterResult a = SimCluster::run(problem, small_batch);
  const ClusterResult b = SimCluster::run(problem, large_batch);
  ASSERT_TRUE(a.all_live_halted);
  ASSERT_TRUE(b.all_live_halted);
  const auto ratio = [](const ClusterResult& r) {
    return static_cast<double>(r.work[WorkItem::kReportCodesSent]) /
           static_cast<double>(r.work[WorkItem::kCompletions]);
  };
  const double ratio_small = ratio(a);
  const double ratio_large = ratio(b);
  EXPECT_LT(ratio_large, ratio_small);
  EXPECT_LT(ratio_large, 0.5);
}

TEST(Cluster, StorageIsMeasured) {
  const BasicTree tree = test_tree(8);
  TreeProblem problem(&tree);
  const ClusterResult res = SimCluster::run(problem, base_config(4, 8));
  EXPECT_GT(res.peak_table_bytes_total, 0u);
  EXPECT_GE(res.peak_table_bytes_total, res.peak_table_bytes_unique);
}

// ---------------------------------------------------------------------------
// Fault tolerance
// ---------------------------------------------------------------------------

TEST(Cluster, SurvivesCrashOfHalfTheWorkers) {
  const BasicTree tree = test_tree(9);
  TreeProblem problem(&tree);
  // Baseline run to find the failure-free makespan.
  const ClusterResult baseline = SimCluster::run(problem, base_config(4, 9));
  ASSERT_TRUE(baseline.all_live_halted);
  ClusterConfig cfg = base_config(4, 9);
  cfg.crashes = {{1, baseline.makespan * 0.4}, {3, baseline.makespan * 0.6}};
  const ClusterResult res = SimCluster::run(problem, cfg);
  expect_solved(res, tree.optimal_value());
  EXPECT_TRUE(res.crashed[1]);
  EXPECT_TRUE(res.crashed[3]);
  EXPECT_FALSE(res.crashed[0]);
  EXPECT_GE(res.makespan, baseline.makespan);  // recovery costs time, never correctness
}

TEST(Cluster, CrashedWorkerRejoinsAsFreshIncarnationAndHalts) {
  const BasicTree tree = test_tree(9);
  TreeProblem problem(&tree);
  const ClusterResult baseline = SimCluster::run(problem, base_config(4, 9));
  ASSERT_TRUE(baseline.all_live_halted);
  ClusterConfig cfg = base_config(4, 9);
  cfg.crashes = {{1, baseline.makespan * 0.3}};
  cfg.rejoins = {{1, baseline.makespan * 0.6}};
  const ClusterResult res = SimCluster::run(problem, cfg);
  expect_solved(res, tree.optimal_value());
  // The revived worker ends the run live and halted, with the exact optimum
  // (every live worker that detects termination holds the global optimum).
  EXPECT_FALSE(res.crashed[1]);
  EXPECT_DOUBLE_EQ(res.incumbents[1], tree.optimal_value());
  // Its ledger folds in the crashed incarnation's spent time.
  const core::WorkLedger& revived = res.worker_ledgers[1];
  EXPECT_EQ(revived[WorkItem::kIncarnations], 2u);
  EXPECT_GT(revived.time_all() - revived.time(core::CostKind::kIdle), 0.0);
}

TEST(Cluster, RejoinAimedAtLiveWorkerIsIgnored) {
  const BasicTree tree = test_tree(9, 301);
  TreeProblem problem(&tree);
  ClusterConfig cfg = base_config(3, 9);
  // The crash is scheduled far past termination, so it never happens; the
  // rejoin must then be a no-op rather than double-starting the worker.
  cfg.crashes = {{1, 200.0}};
  cfg.rejoins = {{1, 250.0}};
  const ClusterResult res = SimCluster::run(problem, cfg);
  expect_solved(res, tree.optimal_value());
  EXPECT_FALSE(res.crashed[1]);
}

TEST(Cluster, Figure6AllButOneCrashNearTheEnd) {
  // The paper's Figure 6: two of three processors crash at ~85% of the
  // execution; the survivor recovers the lost work and terminates.
  const BasicTree tree = test_tree(10);
  TreeProblem problem(&tree);
  const ClusterResult baseline = SimCluster::run(problem, base_config(3, 10));
  ASSERT_TRUE(baseline.all_live_halted);
  ClusterConfig cfg = base_config(3, 10);
  const double when = baseline.makespan * 0.85;
  cfg.crashes = {{1, when}, {2, when}};
  const ClusterResult res = SimCluster::run(problem, cfg);
  expect_solved(res, tree.optimal_value());
  // The survivor had to redo lost work.
  EXPECT_GT(res.worker_ledgers[0][WorkItem::kRecoveries] + res.redundant_expansions, 0u);
}

TEST(Cluster, SurvivesRootHolderCrashBeforeSharing) {
  const BasicTree tree = test_tree(11);
  TreeProblem problem(&tree);
  ClusterConfig cfg = base_config(3, 11);
  cfg.crashes = {{0, 1e-4}};  // root holder dies almost immediately
  const ClusterResult res = SimCluster::run(problem, cfg);
  expect_solved(res, tree.optimal_value());
  // Someone recovered the root problem from an empty table.
  EXPECT_GT(res.work[WorkItem::kRecoveries], 0u);
}

TEST(Cluster, SurvivesMessageLoss) {
  const BasicTree tree = test_tree(12);
  TreeProblem problem(&tree);
  ClusterConfig cfg = base_config(4, 12);
  cfg.net.loss_prob = 0.2;
  const ClusterResult res = SimCluster::run(problem, cfg);
  expect_solved(res, tree.optimal_value());
  EXPECT_GT(res.net.messages_lost, 0u);
}

TEST(Cluster, SurvivesTemporaryPartition) {
  const BasicTree tree = test_tree(13);
  TreeProblem problem(&tree);
  const ClusterResult baseline = SimCluster::run(problem, base_config(4, 13));
  ASSERT_TRUE(baseline.all_live_halted);
  ClusterConfig cfg = base_config(4, 13);
  Partition p;
  p.t0 = baseline.makespan * 0.2;
  p.t1 = baseline.makespan * 0.6;
  p.group_of = {0, 0, 1, 1};
  cfg.partitions = {p};
  const ClusterResult res = SimCluster::run(problem, cfg);
  expect_solved(res, tree.optimal_value());
}

TEST(Cluster, SurvivesCrashesAndLossTogether) {
  const BasicTree tree = test_tree(14);
  TreeProblem problem(&tree);
  const ClusterResult baseline = SimCluster::run(problem, base_config(5, 14));
  ASSERT_TRUE(baseline.all_live_halted);
  ClusterConfig cfg = base_config(5, 14);
  cfg.net.loss_prob = 0.1;
  cfg.crashes = {{2, baseline.makespan * 0.3}, {4, baseline.makespan * 0.5}};
  const ClusterResult res = SimCluster::run(problem, cfg);
  expect_solved(res, tree.optimal_value());
}

TEST(Cluster, EliminationStillCorrectUnderCrashes) {
  // With bounds honored, pruning interacts with recovery; the optimum must
  // still be exact.
  const auto inst = bnb::KnapsackInstance::strongly_correlated(15, 50, 0.5, 4);
  bnb::NodeCostModel cost;
  cost.mean = 1e-3;
  bnb::KnapsackModel model(inst, cost);
  const ClusterResult baseline = SimCluster::run(model, base_config(4, 15));
  ASSERT_TRUE(baseline.all_live_halted);
  ClusterConfig cfg = base_config(4, 15);
  cfg.crashes = {{1, baseline.makespan * 0.5}, {2, baseline.makespan * 0.7}};
  const ClusterResult res = SimCluster::run(model, cfg);
  expect_solved(res, *model.known_optimal());
}

/// Property sweep: random crash schedules leaving at least one survivor
/// always terminate with the exact optimum.
class CrashSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrashSweepTest, AnyCrashScheduleWithASurvivorIsCorrect) {
  const std::uint64_t seed = GetParam();
  const BasicTree tree = test_tree(100 + seed, 601);
  TreeProblem problem(&tree);
  const std::uint32_t workers = 3 + static_cast<std::uint32_t>(seed % 4);  // 3..6
  const ClusterResult baseline = SimCluster::run(problem, base_config(workers, seed));
  ASSERT_TRUE(baseline.all_live_halted);

  support::Rng rng(seed * 977 + 5);
  ClusterConfig cfg = base_config(workers, seed);
  // Kill a random subset (possibly all but one) at random times.
  const auto victims = rng.sample_without_replacement(
      workers, 1 + rng.pick(workers - 1));
  for (const std::size_t v : victims) {
    cfg.crashes.push_back(
        {static_cast<core::NodeId>(v),
         baseline.makespan * rng.uniform(0.05, 1.1)});
  }
  const ClusterResult res = SimCluster::run(problem, cfg);
  expect_solved(res, tree.optimal_value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashSweepTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));


// ---------------------------------------------------------------------------
// Dynamic membership (paper Section 4: dynamically available resources)
// ---------------------------------------------------------------------------

TEST(Cluster, LateJoinersParticipateAndTerminate) {
  const BasicTree tree = test_tree(20, 2001);
  TreeProblem problem(&tree, /*honor_bounds=*/false);
  const ClusterResult baseline = SimCluster::run(problem, base_config(2, 20));
  ASSERT_TRUE(baseline.all_live_halted);
  // Six workers join in waves while two work from the start.
  ClusterConfig cfg = base_config(8, 20);
  cfg.join_times = {0.0, 0.0,
                    baseline.makespan * 0.1, baseline.makespan * 0.1,
                    baseline.makespan * 0.2, baseline.makespan * 0.2,
                    baseline.makespan * 0.3, baseline.makespan * 0.3};
  const ClusterResult res = SimCluster::run(problem, cfg);
  expect_solved(res, tree.optimal_value());
  // Late capacity speeds the run up vs two workers alone.
  EXPECT_LT(res.makespan, baseline.makespan);
  // Every joiner contributed.
  int active = 0;
  for (const core::WorkLedger& w : res.worker_ledgers) {
    active += w[WorkItem::kExpansions] > 0 ? 1 : 0;
  }
  EXPECT_GE(active, 6);
}

TEST(Cluster, JoinersPlusCrashesStillExact) {
  const BasicTree tree = test_tree(21, 1001);
  TreeProblem problem(&tree);
  const ClusterResult baseline = SimCluster::run(problem, base_config(3, 21));
  ASSERT_TRUE(baseline.all_live_halted);
  ClusterConfig cfg = base_config(6, 21);
  cfg.join_times = {0.0, 0.0, 0.0,
                    baseline.makespan * 0.2, baseline.makespan * 0.3,
                    baseline.makespan * 0.4};
  cfg.crashes = {{1, baseline.makespan * 0.5}, {4, baseline.makespan * 0.6}};
  const ClusterResult res = SimCluster::run(problem, cfg);
  expect_solved(res, tree.optimal_value());
}

TEST(Cluster, WorkerCrashingBeforeJoiningIsIgnored) {
  const BasicTree tree = test_tree(22, 601);
  TreeProblem problem(&tree);
  ClusterConfig cfg = base_config(3, 22);
  cfg.join_times = {0.0, 0.0, 1e8};  // worker 2 would join far in the future
  cfg.crashes = {{2, 0.001}};        // ...but dies first
  cfg.time_limit = 1e7;
  const ClusterResult res = SimCluster::run(problem, cfg);
  expect_solved(res, tree.optimal_value());
}

TEST(Cluster, CrashedIdleWorkerAccountsForEverySecondUntilItsCrash) {
  // Worker 1 joins at 0.03 and crashes at 0.1 without ever holding work:
  // worker 0 grants nothing, and every protocol cost is zero, so worker 1
  // is idle at every instant. Its five time categories must then sum to
  // exactly its lifetime. With worker 0 reachable, its denies answer each
  // request early and the next request supersedes the pending timeout, so
  // superseded timer fires land in the idle gaps; behind a partition every
  // timeout fires for real.
  const BasicTree tree = test_tree(25, 601, /*cost_mean=*/0.01);
  TreeProblem problem(&tree);
  for (const bool partitioned : {false, true}) {
    ClusterConfig cfg = base_config(2, 25);
    cfg.worker.costs = core::ProtocolCosts{0, 0, 0, 0, 0, 0, 0, 0};
    cfg.worker.min_pool_to_grant = 1u << 30;
    cfg.join_times = {0.0, 0.03};
    cfg.crashes = {{1, 0.1}};
    if (partitioned) cfg.partitions = {Partition{0.0, 1e9, {0, 1}}};
    const ClusterResult res = SimCluster::run(problem, cfg);
    expect_solved(res, tree.optimal_value());
    ASSERT_TRUE(res.crashed[1]);
    const core::WorkLedger& late = res.worker_ledgers[1];
    EXPECT_NEAR(late.time_all(), 0.1 - 0.03, 1e-12) << "partitioned " << partitioned;
    EXPECT_GT(late[WorkItem::kWorkRequestsSent], 0u);
    EXPECT_EQ(late[WorkItem::kExpansions], 0u);
  }
}

// ---------------------------------------------------------------------------
// Adaptive timeouts (paper Section 7 future work)
// ---------------------------------------------------------------------------

TEST(Cluster, AdaptiveTimeoutsPreventSpuriousRecoveryOnCoarseNodes) {
  // Coarse nodes + eager fixed timeouts: busy peers look dead and whole
  // regions get duplicated. The cost-model controller stretches its
  // patience to the observed node cost.
  BasicTree tree = test_tree(23, 601, /*cost_mean=*/0.5);
  TreeProblem problem(&tree, /*honor_bounds=*/false);
  ClusterConfig eager = base_config(4, 23);
  eager.worker.attempts_before_recovery = 1;
  eager.worker.work_request_timeout = 0.02;  // << node cost: busy peers
                                             // cannot answer before the
                                             // requester gives up
  eager.time_limit = 3e4;
  ClusterConfig adaptive = eager;
  adaptive.worker.model_adaptivity = true;
  const ClusterResult fixed_res = SimCluster::run(problem, eager);
  const ClusterResult adaptive_res = SimCluster::run(problem, adaptive);
  ASSERT_TRUE(fixed_res.all_live_halted);
  ASSERT_TRUE(adaptive_res.all_live_halted);
  EXPECT_DOUBLE_EQ(adaptive_res.solution, tree.optimal_value());
  // The stall gate keeps both runs from duplicating work, but the fixed
  // configuration keeps suspecting busy peers (request timeouts fire on
  // every coarse expansion); the adaptive one stretches its patience.
  // (Almost all timeouts in this small scenario happen during ramp-up,
  // before any node cost has been observed, so the counts only need to not
  // regress; the precise stretching contract is tested at the worker level
  // in worker_test.cpp.)
  EXPECT_LE(adaptive_res.work[WorkItem::kRequestTimeouts],
            fixed_res.work[WorkItem::kRequestTimeouts]);
  // Small endgame duplication is possible; ramp-up scale blowups are not.
  EXPECT_LT(adaptive_res.redundant_expansions, 50u);
}

TEST(Cluster, AdaptiveTimeoutsStillRecoverFromRealCrashes) {
  const BasicTree tree = test_tree(24, 601);
  TreeProblem problem(&tree);
  const ClusterResult baseline = SimCluster::run(problem, base_config(4, 24));
  ASSERT_TRUE(baseline.all_live_halted);
  ClusterConfig cfg = base_config(4, 24);
  cfg.worker.model_adaptivity = true;
  cfg.crashes = {{1, baseline.makespan * 0.4}, {2, baseline.makespan * 0.4}};
  const ClusterResult res = SimCluster::run(problem, cfg);
  expect_solved(res, tree.optimal_value());
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

TEST(Cluster, TraceRecordsActivityAndDeath) {
  const BasicTree tree = test_tree(16, 301);
  TreeProblem problem(&tree);
  const ClusterResult baseline = SimCluster::run(problem, base_config(3, 16));
  ASSERT_TRUE(baseline.all_live_halted);
  ClusterConfig cfg = base_config(3, 16);
  cfg.record_trace = true;
  cfg.crashes = {{2, baseline.makespan * 0.5}};
  const ClusterResult res = SimCluster::run(problem, cfg);
  ASSERT_TRUE(res.all_live_halted);
  EXPECT_FALSE(res.timeline.empty());
  bool saw_bb = false;
  bool saw_dead = false;
  for (const auto& iv : res.timeline.intervals()) {
    saw_bb |= iv.activity == trace::Activity::kBB;
    saw_dead |= iv.activity == trace::Activity::kDead;
  }
  EXPECT_TRUE(saw_bb);
  EXPECT_TRUE(saw_dead);
  const std::string chart = res.timeline.render_ascii(3, 80);
  EXPECT_NE(chart.find("P0"), std::string::npos);
  EXPECT_NE(chart.find('X'), std::string::npos);
}

TEST(Cluster, ShardedExecutorMatchesSequentialBitForBit) {
  // Every observable of ClusterResult — per-worker ledgers, the redundant-cost
  // double, storage peaks, network counters, the activity timeline — must be
  // byte-equal between the sequential kernel and sharded runs, under a
  // schedule exercising crash, rejoin, partition, and loss at once.
  const BasicTree tree = test_tree(97);
  TreeProblem problem(&tree);
  ClusterConfig cfg = base_config(6, 97);
  cfg.record_trace = true;
  cfg.net.loss_prob = 0.05;
  cfg.crashes = {{1, 0.05}};
  cfg.rejoins = {{1, 0.2}};
  cfg.partitions = {Partition{0.08, 0.15, {0, 0, 0, 1, 1, 1}}};
  cfg.sim_threads = 1;
  const ClusterResult seq = SimCluster::run(problem, cfg);
  ASSERT_TRUE(seq.all_live_halted);
  for (const std::uint32_t threads : {2u, 4u}) {
    cfg.sim_threads = threads;
    const ClusterResult par = SimCluster::run(problem, cfg);
    EXPECT_EQ(seq.solution, par.solution);
    EXPECT_EQ(seq.makespan, par.makespan);
    EXPECT_EQ(seq.first_detection, par.first_detection);
    EXPECT_EQ(seq.total_expanded, par.total_expanded);
    EXPECT_EQ(seq.unique_expanded, par.unique_expanded);
    EXPECT_EQ(seq.redundant_expansions, par.redundant_expansions);
    EXPECT_EQ(seq.redundant_cost, par.redundant_cost);  // exact, not NEAR
    // The ledger fingerprint covers every counter and time bucket bit for bit.
    EXPECT_EQ(seq.work.fingerprint(), par.work.fingerprint()) << "threads " << threads;
    EXPECT_EQ(seq.peak_table_bytes_total, par.peak_table_bytes_total);
    EXPECT_EQ(seq.peak_table_bytes_unique, par.peak_table_bytes_unique);
    EXPECT_EQ(seq.final_table_bytes_total, par.final_table_bytes_total);
    EXPECT_EQ(seq.net.messages_sent, par.net.messages_sent);
    EXPECT_EQ(seq.net.messages_delivered, par.net.messages_delivered);
    EXPECT_EQ(seq.net.messages_lost, par.net.messages_lost);
    EXPECT_EQ(seq.net.bytes_sent, par.net.bytes_sent);
    ASSERT_EQ(seq.worker_ledgers.size(), par.worker_ledgers.size());
    ASSERT_EQ(seq.halted_at.size(), par.halted_at.size());
    for (std::size_t w = 0; w < seq.worker_ledgers.size(); ++w) {
      EXPECT_EQ(seq.worker_ledgers[w].fingerprint(), par.worker_ledgers[w].fingerprint())
          << "worker " << w << " threads " << threads;
      EXPECT_EQ(seq.halted_at[w], par.halted_at[w]);
      EXPECT_EQ(seq.incumbents[w], par.incumbents[w]);
      EXPECT_EQ(seq.crashed[w], par.crashed[w]);
    }
    const auto& a = seq.timeline.intervals();
    const auto& b = par.timeline.intervals();
    ASSERT_EQ(a.size(), b.size()) << "threads " << threads;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].proc, b[i].proc);
      EXPECT_EQ(a[i].t0, b[i].t0);
      EXPECT_EQ(a[i].t1, b[i].t1);
      EXPECT_EQ(a[i].activity, b[i].activity);
    }
  }
}

}  // namespace
}  // namespace ftbb::sim
