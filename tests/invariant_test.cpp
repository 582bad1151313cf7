// System-level invariants behind the paper's correctness argument.
//
// The load-bearing theorem: completion knowledge and the incumbent travel
// together on every message, so any process whose table covers a region
// holds an incumbent at least as good as that region's best solution. Its
// observable consequences, asserted here across seeds, worker counts, and
// failure schedules:
//
//   1. EVERY termination detector independently holds the global optimum
//      (not merely the best across workers);
//   2. without failures, no subproblem is ever expanded twice anywhere
//      (work conservation: the protocol alone introduces no redundancy);
//   3. the union of all recorded completions covers the root exactly when
//      the run terminates;
//   4. completion tables never contain false claims: everything a table
//      covers was genuinely completed (expanded or fathomed) somewhere.
#include <gtest/gtest.h>

#include "bnb/basic_tree.hpp"
#include "sim/cluster.hpp"

namespace ftbb::sim {
namespace {

using bnb::BasicTree;
using bnb::RandomTreeConfig;
using bnb::TreeProblem;

core::WorkerConfig fast_config() {
  core::WorkerConfig w;
  w.report_batch = 4;
  w.report_flush_interval = 0.05;
  w.table_gossip_interval = 0.2;
  w.work_request_timeout = 0.02;
  w.idle_backoff = 0.005;
  w.initial_stagger = 0.002;
  return w;
}

struct Scenario {
  BasicTree tree;
  ClusterConfig cfg;

  Scenario(std::uint64_t seed, std::uint32_t workers, bool exhaustive)
      : tree(make_tree(seed)) {
    cfg.workers = workers;
    cfg.worker = fast_config();
    cfg.seed = seed;
    cfg.time_limit = 600.0;
    cfg.storage_sample_interval = 0.1;
    exhaustive_ = exhaustive;
  }

  [[nodiscard]] TreeProblem problem() const {
    return TreeProblem(&tree, /*honor_bounds=*/!exhaustive_);
  }

 private:
  static BasicTree make_tree(std::uint64_t seed) {
    RandomTreeConfig tc;
    tc.target_nodes = 801;
    tc.seed = seed * 31 + 1;
    tc.cost_mean = 2e-3;
    return BasicTree::random(tc);
  }

  bool exhaustive_ = false;
};

class InvariantSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InvariantSweep, EveryDetectorHoldsTheGlobalOptimum) {
  const std::uint64_t seed = GetParam();
  Scenario scenario(seed, 2 + static_cast<std::uint32_t>(seed % 5), false);
  const TreeProblem problem = scenario.problem();
  const ClusterResult res = SimCluster::run(problem, scenario.cfg);
  ASSERT_TRUE(res.all_live_halted);
  for (std::size_t i = 0; i < res.incumbents.size(); ++i) {
    if (res.crashed[i]) continue;
    EXPECT_DOUBLE_EQ(res.incumbents[i], scenario.tree.optimal_value())
        << "worker " << i << " detected termination with a stale incumbent";
  }
}

TEST_P(InvariantSweep, EveryDetectorHoldsTheOptimumEvenUnderCrashes) {
  const std::uint64_t seed = GetParam();
  Scenario scenario(seed, 5, false);
  const TreeProblem problem = scenario.problem();
  const ClusterResult baseline = SimCluster::run(problem, scenario.cfg);
  ASSERT_TRUE(baseline.all_live_halted);
  Scenario crashed(seed, 5, false);
  support::Rng rng(seed * 101 + 3);
  const std::size_t victims = 1 + rng.pick(4);
  for (const std::size_t v : rng.sample_without_replacement(4, victims)) {
    crashed.cfg.crashes.push_back(
        {static_cast<core::NodeId>(v + 1),
         baseline.makespan * rng.uniform(0.1, 1.0)});
  }
  const TreeProblem crashed_problem = crashed.problem();
  const ClusterResult res = SimCluster::run(crashed_problem, crashed.cfg);
  ASSERT_TRUE(res.all_live_halted);
  for (std::size_t i = 0; i < res.incumbents.size(); ++i) {
    if (res.crashed[i] || res.halted_at[i] < 0.0) continue;
    EXPECT_DOUBLE_EQ(res.incumbents[i], crashed.tree.optimal_value())
        << "worker " << i;
  }
}

TEST_P(InvariantSweep, NoRedundantWorkWithoutFailures) {
  const std::uint64_t seed = GetParam();
  Scenario scenario(seed, 2 + static_cast<std::uint32_t>(seed % 6), true);
  const TreeProblem problem = scenario.problem();
  const ClusterResult res = SimCluster::run(problem, scenario.cfg);
  ASSERT_TRUE(res.all_live_halted);
  EXPECT_EQ(res.redundant_expansions, 0u);
  // Exhaustive mode: the whole tree is expanded exactly once systemwide.
  EXPECT_EQ(res.total_expanded, scenario.tree.size());
  EXPECT_EQ(res.unique_expanded, scenario.tree.size());
}

TEST_P(InvariantSweep, CompletionKnowledgeIsNeverFalse) {
  // Under crashes and loss, tables may be incomplete but never wrong: any
  // code the union of completions covers corresponds to work that really
  // finished (expanded, or fathomed by a bound that a genuine feasible
  // solution justified). Observable consequence: the run still terminates
  // with the exact optimum — a false completion would prune live work and
  // break exactness with nonzero probability across this sweep.
  const std::uint64_t seed = GetParam();
  Scenario scenario(seed, 4, false);
  scenario.cfg.net.loss_prob = 0.15;
  const TreeProblem problem = scenario.problem();
  const ClusterResult baseline = SimCluster::run(problem, scenario.cfg);
  ASSERT_TRUE(baseline.all_live_halted);
  Scenario harsh(seed, 4, false);
  harsh.cfg.net.loss_prob = 0.15;
  harsh.cfg.crashes = {{1, baseline.makespan * 0.3},
                       {3, baseline.makespan * 0.7}};
  const TreeProblem harsh_problem = harsh.problem();
  const ClusterResult res = SimCluster::run(harsh_problem, harsh.cfg);
  ASSERT_TRUE(res.all_live_halted);
  EXPECT_DOUBLE_EQ(res.solution, harsh.tree.optimal_value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12));

}  // namespace
}  // namespace ftbb::sim
