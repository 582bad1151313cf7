// Bounded-time randomized chaos soak on the thread-backed runtime.
//
// A seeded generator builds a random FaultSchedule — membership churn,
// worker bounces (crash + revive), symmetric and asymmetric partition
// windows, background loss — and replays it through the FaultDriver against
// real threads. The schedule is deterministic per seed; the execution is
// not (thread scheduling), which is the point of a soak: protocol
// correctness must hold under whichever interleaving the OS produces.
//
// Assertions: the run terminates inside the wall cap, every live worker
// agrees on the exact optimum, and incarnation hygiene holds — every worker
// thread ever spawned (including every churned/bounced incarnation) was
// joined before the result existed. Under ASan/TSan this doubles as a leak
// and race soak of the whole rt fault plane.
#include <gtest/gtest.h>

#include "bnb/basic_tree.hpp"
#include "fault/schedule.hpp"
#include "rt/runtime.hpp"
#include "sim/fault_plan.hpp"
#include "support/rng.hpp"

namespace ftbb::rt {
namespace {

using bnb::BasicTree;
using bnb::RandomTreeConfig;
using bnb::TreeProblem;

/// A random adversity schedule over ~0.35 wall seconds: every fault kind the
/// runtime supports, at randomized times and victims (node 0 seeds the
/// computation and is bounced last if at all — DIB-style root pinning is NOT
/// required here, but a dead seed with no revive would leave nothing to
/// assert, so victims come from [1, workers)).
fault::FaultSchedule random_schedule(std::uint64_t seed, std::uint32_t workers) {
  support::Rng rng(seed);
  sim::FaultPlan plan;

  // Churn: one or two late arrivals extend the population.
  const auto arrivals = static_cast<std::uint32_t>(1 + rng.pick(2));
  plan.churn(workers, arrivals, 0.03 + rng.uniform(0.0, 0.04), 0.04);

  // Bounces: every victim comes back, so the optimum stays assertable even
  // when the schedule happens to hit every non-seed worker.
  const std::size_t bounces = 1 + rng.pick(3);
  for (std::size_t i = 0; i < bounces; ++i) {
    const auto node = static_cast<std::uint32_t>(1 + rng.pick(workers - 1));
    const double down = 0.02 + rng.uniform(0.0, 0.15);
    plan.bounce(node, down, down + 0.05 + rng.uniform(0.0, 0.08));
  }

  // Partitions: a symmetric flap and an asymmetric minority cut.
  if (rng.chance(0.8)) {
    const double t0 = 0.02 + rng.uniform(0.0, 0.1);
    plan.split_halves(t0, t0 + 0.04 + rng.uniform(0.0, 0.04));
  }
  if (rng.chance(0.8)) {
    const double t0 = 0.02 + rng.uniform(0.0, 0.15);
    plan.isolate(static_cast<std::uint32_t>(rng.pick(workers + arrivals)), 1,
                 t0, t0 + 0.03 + rng.uniform(0.0, 0.05));
  }

  // Background loss over the whole episode.
  plan.loss(0.0, 0.35, 0.03 + rng.uniform(0.0, 0.07));

  return fault::FaultSchedule::compile(plan, workers);
}

TEST(RtChaos, RandomizedChurnSoakFindsOptimumAndReapsEveryIncarnation) {
  RandomTreeConfig tree_cfg;
  tree_cfg.target_nodes = 601;
  tree_cfg.seed = 13;
  tree_cfg.cost_mean = 1e-4;  // ~60 ms of total virtual work
  const BasicTree tree = BasicTree::random(tree_cfg);
  TreeProblem problem(&tree);

  for (const std::uint64_t seed : {11ULL, 23ULL, 47ULL}) {
    RtConfig cfg;
    cfg.workers = 4;
    cfg.seed = seed;
    cfg.wall_timeout = 45.0;
    cfg.worker.report_batch = 4;
    cfg.worker.report_flush_interval = 0.02;
    cfg.worker.table_gossip_interval = 0.05;
    cfg.worker.work_request_timeout = 0.01;
    cfg.worker.idle_backoff = 0.004;
    cfg.worker.initial_stagger = 0.002;
    cfg.net.loss_prob = 0.02;
    cfg.faults = random_schedule(seed * 77 + 5, cfg.workers);

    const RtResult res = Cluster::run(problem, cfg);

    EXPECT_FALSE(res.hit_time_limit) << "seed " << seed;
    ASSERT_TRUE(res.all_live_halted) << "seed " << seed;
    EXPECT_DOUBLE_EQ(res.solution, tree.optimal_value()) << "seed " << seed;

    // Incarnation hygiene: every spawned thread was joined, every member of
    // the extended population (initial + churn) got at least one
    // incarnation, and every bounce cost exactly one extra.
    EXPECT_EQ(res.reaped, res.incarnations) << "seed " << seed;
    EXPECT_EQ(res.incarnations_per_worker.size(), cfg.faults.population);
    std::uint32_t expected = 0;
    for (std::uint32_t node = 0; node < cfg.faults.population; ++node) {
      // A member has one incarnation per distinct entry (join or revive);
      // crashes that landed after its halt spawn nothing. At minimum it
      // joined once.
      EXPECT_GE(res.incarnations_per_worker[node], 1u)
          << "seed " << seed << " node " << node;
      expected += res.incarnations_per_worker[node];
    }
    EXPECT_EQ(res.incarnations, expected);
  }
}

TEST(RtChaos, LongPartitionWithLossStillConverges) {
  RandomTreeConfig tree_cfg;
  tree_cfg.target_nodes = 401;
  tree_cfg.seed = 14;
  tree_cfg.cost_mean = 1e-4;
  const BasicTree tree = BasicTree::random(tree_cfg);
  TreeProblem problem(&tree);

  RtConfig cfg;
  cfg.workers = 4;
  cfg.seed = 3;
  cfg.wall_timeout = 45.0;
  cfg.worker.report_batch = 4;
  cfg.worker.report_flush_interval = 0.02;
  cfg.worker.table_gossip_interval = 0.05;
  cfg.worker.work_request_timeout = 0.01;
  cfg.worker.idle_backoff = 0.004;

  sim::FaultPlan plan;
  plan.split_halves(0.01, 0.15);
  plan.loss(0.0, 0.3, 0.15);
  plan.bounce(2, 0.05, 0.2);
  cfg.faults = fault::FaultSchedule::compile(plan, cfg.workers);

  const RtResult res = Cluster::run(problem, cfg);
  EXPECT_FALSE(res.hit_time_limit);
  ASSERT_TRUE(res.all_live_halted);
  EXPECT_DOUBLE_EQ(res.solution, tree.optimal_value());
  EXPECT_EQ(res.reaped, res.incarnations);
  EXPECT_GT(res.net.messages_partitioned + res.net.messages_lost, 0u);
}

}  // namespace
}  // namespace ftbb::rt
