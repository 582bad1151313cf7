// Tests of the centralized manager/worker baseline (paper Section 3).
#include <gtest/gtest.h>

#include "bnb/basic_tree.hpp"
#include "central/central.hpp"

namespace ftbb::central {
namespace {

using bnb::BasicTree;
using bnb::RandomTreeConfig;
using bnb::TreeProblem;

BasicTree test_tree(std::uint64_t seed, std::uint64_t nodes = 601) {
  RandomTreeConfig cfg;
  cfg.target_nodes = nodes;
  cfg.seed = seed;
  cfg.cost_mean = 2e-3;
  return BasicTree::random(cfg);
}

/// A crash of network node `node` at `time`; node 0 is the manager.
fault::FaultSchedule crash_at(std::uint32_t node, double time) {
  fault::FaultSchedule schedule;
  schedule.crashes.push_back(fault::CrashAt{node, time});
  return schedule;
}

CentralConfig fast_config() {
  CentralConfig cfg;
  cfg.batch_size = 4;
  cfg.reissue_timeout = 0.2;
  cfg.audit_interval = 0.1;
  cfg.checkpoint_interval = 0.2;
  cfg.restart_delay = 0.2;
  return cfg;
}

TEST(Central, SolvesWithoutFailures) {
  const BasicTree tree = test_tree(1);
  TreeProblem problem(&tree);
  const CentralResult res =
      CentralSim::run(problem, 4, fast_config(), {}, {}, 120.0, 1);
  EXPECT_TRUE(res.completed);
  ASSERT_TRUE(res.solution_found);
  EXPECT_DOUBLE_EQ(res.solution, tree.optimal_value());
  EXPECT_EQ(res.redundant_expansions, 0u);
}

TEST(Central, ManagerHandlesEveryBatch) {
  const BasicTree tree = test_tree(2, 1001);
  TreeProblem problem(&tree, /*honor_bounds=*/false);
  const CentralResult res =
      CentralSim::run(problem, 4, fast_config(), {}, {}, 120.0, 2);
  ASSERT_TRUE(res.completed);
  // Bottleneck metric: the manager sees at least one message per batch in
  // each direction.
  const std::uint64_t batches =
      (res.total_expanded + fast_config().batch_size - 1) / fast_config().batch_size;
  EXPECT_GE(res.manager_messages, batches);
}

TEST(Central, SurvivesWorkerCrashByReissue) {
  const BasicTree tree = test_tree(3);
  TreeProblem problem(&tree);
  const CentralResult baseline =
      CentralSim::run(problem, 4, fast_config(), {}, {}, 120.0, 3);
  ASSERT_TRUE(baseline.completed);
  const CentralResult res =
      CentralSim::run(problem, 4, fast_config(), {},
                      crash_at(2, baseline.makespan * 0.4), 240.0, 3);
  EXPECT_TRUE(res.completed);
  EXPECT_DOUBLE_EQ(res.solution, tree.optimal_value());
}

TEST(Central, ManagerCrashWithoutCheckpointingIsFatal) {
  const BasicTree tree = test_tree(4, 301);
  TreeProblem problem(&tree);
  const CentralResult baseline =
      CentralSim::run(problem, 3, fast_config(), {}, {}, 120.0, 4);
  ASSERT_TRUE(baseline.completed);
  const CentralResult res =
      CentralSim::run(problem, 3, fast_config(), {},
                      crash_at(0, baseline.makespan * 0.3), 20.0, 4);
  EXPECT_FALSE(res.completed);
}

TEST(Central, ManagerCrashWithCheckpointingRecovers) {
  const BasicTree tree = test_tree(5, 301);
  TreeProblem problem(&tree);
  CentralConfig cfg = fast_config();
  cfg.checkpointing = true;
  cfg.checkpoint_interval = 0.02;  // checkpoints land before the crash
  const CentralResult baseline =
      CentralSim::run(problem, 3, cfg, {}, {}, 120.0, 5);
  ASSERT_TRUE(baseline.completed);
  const double crash = baseline.makespan * 0.5;
  ASSERT_GT(crash, cfg.checkpoint_interval);
  const CentralResult res =
      CentralSim::run(problem, 3, cfg, {}, crash_at(0, crash), 240.0, 5);
  EXPECT_TRUE(res.completed);
  EXPECT_DOUBLE_EQ(res.solution, tree.optimal_value());
  EXPECT_EQ(res.manager_restarts, 1u);
  // Progress since the last checkpoint is redone.
  EXPECT_GE(res.total_expanded, baseline.total_expanded);

  // The same crash before the first checkpoint restarts the manager from
  // the root, which redoes more than restoring the checkpoint did.
  CentralConfig unsaved = cfg;
  unsaved.checkpoint_interval = fast_config().checkpoint_interval;
  ASSERT_LT(crash, unsaved.checkpoint_interval);
  const CentralResult from_root =
      CentralSim::run(problem, 3, unsaved, {}, crash_at(0, crash), 240.0, 5);
  ASSERT_TRUE(from_root.completed);
  EXPECT_EQ(from_root.manager_restarts, 1u);
  EXPECT_LT(res.total_expanded, from_root.total_expanded);
}

TEST(Central, DeterministicForSeed) {
  const BasicTree tree = test_tree(6);
  TreeProblem problem(&tree);
  const CentralResult a = CentralSim::run(problem, 3, fast_config(), {}, {}, 120.0, 9);
  const CentralResult b = CentralSim::run(problem, 3, fast_config(), {}, {}, 120.0, 9);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_expanded, b.total_expanded);
}

}  // namespace
}  // namespace ftbb::central
