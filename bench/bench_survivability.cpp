// E9 — survivability sweep (Sections 5.5 and 7).
//
// "Our simulation studies confirm that the failure of all processes but one
// still allows the problem to be correctly solved." Kill k of 8 processors
// (k = 0..7) at staggered times and verify exact termination every time;
// measure the price (makespan stretch, redundant work).
#include <cstdio>

#include "bench/workloads.hpp"

int main() {
  using namespace ftbb;
  std::printf("E9 / survivability: kill k of 8 processors, verify exactness\n\n");

  bnb::RandomTreeConfig tree_cfg;
  tree_cfg.target_nodes = 4001;
  tree_cfg.cost_mean = 0.01;
  tree_cfg.seed = 41;
  const bnb::BasicTree tree = bnb::BasicTree::random(tree_cfg);
  bnb::TreeProblem problem(&tree);

  const sim::ClusterResult baseline =
      sim::SimCluster::run(problem, bench::small_cluster_config(8, 41));
  if (!baseline.all_live_halted) {
    std::printf("baseline FAILED\n");
    return 1;
  }

  support::TextTable table({"crashed", "survivors", "terminated", "solution",
                            "makespan (s)", "stretch", "redundant", "recoveries"});
  bool all_exact = true;
  for (std::uint32_t k = 0; k <= 7; ++k) {
    sim::ClusterConfig cfg = bench::small_cluster_config(8, 41);
    cfg.time_limit = 3e4;
    // Victims die at staggered fractions of the failure-free makespan.
    for (std::uint32_t v = 0; v < k; ++v) {
      cfg.crashes.push_back(
          {static_cast<core::NodeId>(v + 1),
           baseline.makespan * (0.2 + 0.6 * static_cast<double>(v) /
                                          std::max(1u, k - 1))});
    }
    const sim::ClusterResult res = sim::SimCluster::run(problem, cfg);
    const std::uint64_t recoveries = res.work[core::WorkItem::kRecoveries];
    const bool exact =
        res.all_live_halted && res.solution == tree.optimal_value();
    all_exact = all_exact && exact;
    table.row({std::to_string(k), std::to_string(8 - k),
               res.all_live_halted ? "yes" : "NO", exact ? "exact" : "WRONG",
               support::TextTable::num(res.makespan, 2),
               support::TextTable::num(res.makespan / baseline.makespan, 2),
               std::to_string(res.redundant_expansions),
               std::to_string(recoveries)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nguarantee under test: the loss of up to all but one resource does\n"
              "not affect the quality of the solution; the cost is redundant work\n"
              "and a longer makespan. all runs exact: %s\n",
              all_exact ? "yes" : "NO");
  return all_exact ? 0 : 1;
}
