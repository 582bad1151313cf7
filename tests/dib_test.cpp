// Tests of the DIB baseline — including the failure semantics the paper
// contrasts against (Section 5.5): DIB survives non-root failures by donor
// redo, but the root of the responsibility hierarchy is a single point of
// failure.
#include <gtest/gtest.h>

#include "bnb/basic_tree.hpp"
#include "dib/dib.hpp"

namespace ftbb::dib {
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

fault::FaultSchedule crash_at(std::uint32_t machine, double time) {
  fault::FaultSchedule schedule;
  schedule.crashes.push_back(fault::CrashAt{machine, time});
  return schedule;
}

DibConfig fast_config() {
  DibConfig cfg;
  cfg.work_request_timeout = 0.02;
  cfg.request_backoff = 0.01;
  cfg.audit_interval = 0.1;
  cfg.donation_timeout = 2.0;  // > any healthy donation's lifetime here
  return cfg;
}

TEST(Dib, SolvesWithoutFailures) {
  const BasicTree tree = test_tree(1);
  TreeProblem problem(&tree);
  const DibResult res =
      DibSim::run(problem, 4, fast_config(), {}, {}, 120.0, 1);
  EXPECT_TRUE(res.completed);
  ASSERT_TRUE(res.solution_found);
  EXPECT_DOUBLE_EQ(res.solution, tree.optimal_value());
}

TEST(Dib, WorkSpreadsAcrossMachines) {
  const BasicTree tree = test_tree(2, 1001);
  TreeProblem problem(&tree, /*honor_bounds=*/false);
  const DibResult res =
      DibSim::run(problem, 4, fast_config(), {}, {}, 120.0, 2);
  ASSERT_TRUE(res.completed);
  for (const std::uint64_t expanded : res.expanded_per_machine) {
    EXPECT_GT(expanded, 0u);
  }
  EXPECT_GT(res.donations, 0u);
}

TEST(Dib, SingleMachineWorks) {
  const BasicTree tree = test_tree(3, 301);
  TreeProblem problem(&tree);
  const DibResult res =
      DibSim::run(problem, 1, fast_config(), {}, {}, 120.0, 3);
  EXPECT_TRUE(res.completed);
  EXPECT_DOUBLE_EQ(res.solution, tree.optimal_value());
}

TEST(Dib, DeterministicForSeed) {
  const BasicTree tree = test_tree(4);
  TreeProblem problem(&tree);
  const DibResult a = DibSim::run(problem, 3, fast_config(), {}, {}, 120.0, 7);
  const DibResult b = DibSim::run(problem, 3, fast_config(), {}, {}, 120.0, 7);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_expanded, b.total_expanded);
}

TEST(Dib, SurvivesNonRootFailureByDonorRedo) {
  // honor_bounds=false keeps every machine busy for the whole run, so the
  // victim is guaranteed to hold donated-but-unfinished work when it dies.
  const BasicTree tree = test_tree(5, 1001);
  TreeProblem problem(&tree, /*honor_bounds=*/false);
  const DibResult baseline =
      DibSim::run(problem, 4, fast_config(), {}, {}, 120.0, 5);
  ASSERT_TRUE(baseline.completed);
  const DibResult res = DibSim::run(problem, 4, fast_config(), {},
                                    crash_at(2, baseline.makespan * 0.5), 240.0, 5);
  EXPECT_TRUE(res.completed);
  EXPECT_DOUBLE_EQ(res.solution, tree.optimal_value());
  // The donor redid work: either explicit redos or duplicated expansions.
  EXPECT_GT(res.donation_redos + res.redundant_expansions, 0u);
}

TEST(Dib, RootFailureIsFatal) {
  // The paper's criticism: DIB "imposes the need for a reliable or
  // duplicated node for the root of this hierarchy". Killing machine 0
  // prevents the computation from ever concluding.
  const BasicTree tree = test_tree(6, 301);
  TreeProblem problem(&tree);
  const DibResult baseline =
      DibSim::run(problem, 3, fast_config(), {}, {}, 120.0, 6);
  ASSERT_TRUE(baseline.completed);
  const DibResult res = DibSim::run(problem, 3, fast_config(), {},
                                    crash_at(0, baseline.makespan * 0.3), 20.0, 6);
  EXPECT_FALSE(res.completed);
}

TEST(Dib, FailureAmplification) {
  // Killing a middle machine loses the bookkeeping for problems it donated
  // onward; its donor redoes the whole job including parts third machines
  // already finished — redundancy beyond the victim's own unfinished work.
  const BasicTree tree = test_tree(7, 1001);
  TreeProblem problem(&tree, /*honor_bounds=*/false);
  const DibResult baseline =
      DibSim::run(problem, 5, fast_config(), {}, {}, 240.0, 8);
  ASSERT_TRUE(baseline.completed);
  const DibResult res = DibSim::run(problem, 5, fast_config(), {},
                                    crash_at(1, baseline.makespan * 0.5), 480.0, 8);
  ASSERT_TRUE(res.completed);
  EXPECT_GT(res.total_expanded, baseline.total_expanded);
}

}  // namespace
}  // namespace ftbb::dib
