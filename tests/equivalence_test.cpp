// Cross-backend equivalence: the decentralized protocol, the centralized
// manager/worker baseline, and the DIB baseline are different algorithms
// with different fault-tolerance machinery, but on the same instance they
// must agree on one thing — the optimal objective — even while a lossy,
// crash-laden FaultPlan is running. (Work counts, makespans, and message
// traffic legitimately differ; the optimum is the invariant.)
//
// Cross-substrate equivalence: the same ScenarioSpec also runs on the
// thread-backed rt runtime — real threads, wall-clock fault deadlines, the
// FaultDriver interpreting the identical compiled schedule — and must land
// on the same optimum as the simulated backends for every named plan in the
// corpus.
#include <gtest/gtest.h>

#include "sim/scenario.hpp"

namespace ftbb::sim {
namespace {

constexpr Backend kBackends[] = {Backend::kFtbb, Backend::kCentral,
                                 Backend::kDib};

ScenarioSpec adversarial_spec(WorkloadKind kind, std::uint32_t size,
                              std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "equivalence";
  spec.seed = seed;
  spec.workers = 4;
  spec.time_limit = 300.0;
  spec.workload.kind = kind;
  spec.workload.size = size;
  spec.workload.seed = seed;
  spec.workload.cost_mean = 2e-3;
  spec.tune_for_small_problems();
  // The shared adversity: steady 8% loss, a mid-run crash, and a burst of
  // heavy loss on one link.
  spec.faults.loss(0.0, 1e9, 0.08);
  spec.faults.crash(2, 0.06);
  spec.faults.link_loss(0, 1, 0.1, 0.4, 0.5);
  return spec;
}

void expect_equivalent(WorkloadKind kind, std::uint32_t size,
                       std::uint64_t seed) {
  double solution = 0.0;
  bool first = true;
  for (const Backend backend : kBackends) {
    ScenarioSpec spec = adversarial_spec(kind, size, seed);
    spec.backend = backend;
    const ScenarioReport report = ScenarioRunner::run(spec);
    ASSERT_TRUE(report.completed) << report.to_string();
    ASSERT_TRUE(report.solution_found) << report.to_string();
    ASSERT_TRUE(report.optimum_known);
    EXPECT_TRUE(report.optimum_matched) << report.to_string();
    if (first) {
      solution = report.solution;
      first = false;
    } else {
      EXPECT_DOUBLE_EQ(report.solution, solution)
          << to_string(backend) << " disagrees: " << report.to_string();
    }
  }
}

TEST(Equivalence, KnapsackUnderLossyPlan) {
  expect_equivalent(WorkloadKind::kKnapsack, 12, 7);
  expect_equivalent(WorkloadKind::kKnapsack, 14, 8);
}

TEST(Equivalence, SyntheticTreeUnderLossyPlan) {
  expect_equivalent(WorkloadKind::kSyntheticTree, 401, 12);
}

TEST(Equivalence, TspUnderLossyPlan) {
  // n = 8 keeps the per-backend runs fast; n = 9 (36 edges) pushes live
  // codes past PathCode's inline buffer, so the heap-mode representation is
  // exercised across every backend's wire and table path too.
  expect_equivalent(WorkloadKind::kTsp, 8, 16);
  expect_equivalent(WorkloadKind::kTsp, 9, 17);
}

// ---------------------------------------------------------------------------
// Cross-substrate corpus agreement: every named FaultPlan replays on the rt
// backend through the same ScenarioRunner entry point, and rt agrees with
// the simulated backends on the optimum.
// ---------------------------------------------------------------------------

struct CorpusCase {
  const char* name;
  std::uint32_t workers;
  FaultPlan plan;
};

std::vector<CorpusCase> corpus() {
  std::vector<CorpusCase> cases;
  cases.push_back({"flaky-link", 4, FaultPlan::flaky_link(0, 2, 0.02, 0.5, 0.6, 0.06)});
  cases.push_back({"rolling-restart", 4,
                   FaultPlan::rolling_restart(1, 3, 0.05, 0.08, 0.1)});
  cases.push_back({"flapping-partition", 4,
                   FaultPlan::flapping_partition(3, 0.04, 0.06, 0.05)});
  cases.push_back({"adversarial-churn", 2,
                   FaultPlan::adversarial_churn(2, 3, 0.05, 0.05)});
  cases.push_back({"cascading-storm", 4,
                   FaultPlan::cascading_storm(1, 3, 0.05, 0.08, 0.12)});
  cases.push_back({"asymmetric-partition", 4,
                   FaultPlan::asymmetric_partition(1, 3, 0.04, 0.07, 0.05)});
  return cases;
}

TEST(Equivalence, CorpusPlansAgreeAcrossSubstrates) {
  constexpr Backend kSubstrates[] = {Backend::kFtbb, Backend::kCentral,
                                     Backend::kDib, Backend::kRt};
  for (const CorpusCase& c : corpus()) {
    double solution = 0.0;
    bool first = true;
    for (const Backend backend : kSubstrates) {
      ScenarioSpec spec;
      spec.name = std::string("corpus-") + c.name;
      spec.backend = backend;
      spec.seed = 97;
      spec.workers = c.workers;
      spec.time_limit = 300.0;
      spec.rt_wall_timeout = 60.0;
      spec.workload.kind = WorkloadKind::kKnapsack;
      spec.workload.size = 14;
      spec.workload.seed = 97;
      spec.workload.cost_mean = 2e-3;
      spec.tune_for_small_problems();
      spec.faults = c.plan;
      const ScenarioReport report = ScenarioRunner::run(spec);
      ASSERT_TRUE(report.completed) << c.name << "\n" << report.to_string();
      ASSERT_TRUE(report.solution_found) << c.name << "\n" << report.to_string();
      EXPECT_TRUE(report.optimum_matched) << c.name << "\n" << report.to_string();
      if (first) {
        solution = report.solution;
        first = false;
      } else {
        EXPECT_DOUBLE_EQ(report.solution, solution)
            << to_string(backend) << " disagrees on " << c.name << ": "
            << report.to_string();
      }
    }
  }
}

}  // namespace
}  // namespace ftbb::sim
