// Tests of the centralized manager/worker baseline (paper Section 3).
#include <gtest/gtest.h>

#include "bnb/basic_tree.hpp"
#include "central/central.hpp"
#include "tests/ledger_checks.hpp"

namespace ftbb::central {
namespace {

using bnb::BasicTree;
using bnb::RandomTreeConfig;
using bnb::TreeProblem;
using core::WorkItem;

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
  EXPECT_GE(res.worker_ledgers[0][WorkItem::kMsgsReceived], batches);
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
  EXPECT_EQ(res.worker_ledgers[0][WorkItem::kIncarnations], 2u);  // one restart
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
  EXPECT_EQ(from_root.worker_ledgers[0][WorkItem::kIncarnations], 2u);
  EXPECT_LT(res.total_expanded, from_root.total_expanded);
}

/// Worker 2 crashes and revives, and the manager crashes after its first
/// checkpoints and restarts from them.
CentralResult run_every_fault_kind(std::uint32_t sim_threads) {
  const BasicTree tree = test_tree(5, 301);
  TreeProblem problem(&tree);
  CentralConfig cfg = fast_config();
  cfg.checkpointing = true;
  cfg.checkpoint_interval = 0.02;
  cfg.sim_threads = sim_threads;
  fault::FaultSchedule faults;
  faults.crashes = {{2, 0.03}, {0, 0.08}};
  faults.revives = {{2, 0.05}};
  return CentralSim::run(problem, 3, cfg, {}, faults, 240.0, 5);
}

TEST(Central, LedgersArePerNodeAndAddUp) {
  const CentralResult res = run_every_fault_kind(1);
  ASSERT_TRUE(res.completed);
  expect_ledgers_add_up(res, 4);  // the manager and three workers
  const core::WorkLedger& manager = res.worker_ledgers[0];
  EXPECT_EQ(manager[WorkItem::kIncarnations], 2u);
  EXPECT_EQ(res.worker_ledgers[2][WorkItem::kIncarnations], 2u);
  for (const std::uint32_t w : {1u, 3u}) {
    EXPECT_EQ(res.worker_ledgers[w][WorkItem::kIncarnations], 1u) << w;
  }
  // The manager issues batches and expands nothing; workers do the reverse.
  EXPECT_EQ(manager[WorkItem::kExpansions], 0u);
  EXPECT_EQ(manager[WorkItem::kGrantsGiven], res.work[WorkItem::kGrantsGiven]);
  EXPECT_EQ(manager[WorkItem::kRecoveries], res.work[WorkItem::kRecoveries]);
  EXPECT_GE(manager[WorkItem::kProblemsGiven], manager[WorkItem::kGrantsGiven]);
  EXPECT_GE(manager[WorkItem::kGrantsGiven], res.work[WorkItem::kGrantsReceived]);
  // Nothing is lost, and workers talk only to the manager: what they send it
  // receives, and the other way round.
  std::uint64_t workers_sent = 0;
  std::uint64_t workers_received = 0;
  for (std::size_t w = 1; w < res.worker_ledgers.size(); ++w) {
    workers_sent += res.worker_ledgers[w][WorkItem::kMsgsSent];
    workers_received += res.worker_ledgers[w][WorkItem::kMsgsReceived];
  }
  EXPECT_EQ(manager[WorkItem::kMsgsReceived], workers_sent);
  EXPECT_EQ(manager[WorkItem::kMsgsSent], workers_received);
}

TEST(Central, LedgersMatchAtEveryThreadCount) {
  const CentralResult sequential = run_every_fault_kind(1);
  for (const std::uint32_t threads : {2u, 4u}) {
    SCOPED_TRACE(threads);
    expect_same_ledgers(sequential, run_every_fault_kind(threads));
  }
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
