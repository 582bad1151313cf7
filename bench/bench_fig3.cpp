// E1 — Figure 3: execution-time breakdown for a small real problem
// (~3,500 expanded nodes, 0.01 s mean node cost) on 1-8 processors.
//
// The paper reports, per processor count, the split of total time into
// B&B time, communication time, list-contraction time, load-balancing time,
// and idle time, with communication modeled as 1.5 + 0.005*L ms. The
// headline observation: overhead reaches ~36% at 8 processors because the
// granularity is small relative to the communication costs.
#include <cstdio>

#include "bench/workloads.hpp"
#include "bnb/sequential.hpp"

int main() {
  using namespace ftbb;
  std::printf("E1 / Figure 3: small problem, execution time breakdown, 1-8 procs\n");

  const bnb::BasicTree tree = bench::small_problem();
  bnb::TreeProblem problem(&tree);
  const bnb::SeqResult seq = bnb::solve_sequential(problem);
  std::printf("problem: recorded knapsack basic tree, %zu nodes total, "
              "%llu expanded sequentially, %.1fs uniprocessor B&B time\n\n",
              tree.size(), static_cast<unsigned long long>(seq.expanded),
              seq.total_cost);

  support::TextTable table({"procs", "makespan (s)", "BB", "comm", "contraction",
                            "LB", "idle", "overhead"});
  for (std::uint32_t procs = 1; procs <= 8; ++procs) {
    sim::ClusterConfig cfg = bench::small_cluster_config(procs);
    const sim::ClusterResult res = sim::SimCluster::run(problem, cfg);
    if (!res.all_live_halted || res.solution != tree.optimal_value()) {
      std::printf("procs=%u FAILED (halted=%d)\n", procs, res.all_live_halted);
      return 1;
    }
    const double total = res.work.time_all();
    const double bb = res.work.time(core::CostKind::kBB);
    table.row({std::to_string(procs), support::TextTable::num(res.makespan, 2),
               support::TextTable::pct(bb / total, 1),
               support::TextTable::pct(res.work.time(core::CostKind::kComm) / total, 2),
               support::TextTable::pct(
                   res.work.time(core::CostKind::kContraction) / total, 2),
               support::TextTable::pct(
                   res.work.time(core::CostKind::kLoadBalance) / total, 2),
               support::TextTable::pct(res.work.time(core::CostKind::kIdle) / total, 2),
               support::TextTable::pct(1.0 - bb / total, 1)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\npaper shape: overhead grows with processor count for this small\n"
              "granularity (the paper reports ~36%% at 8 processors); B&B time\n"
              "dominates at 1-2 processors.\n");
  return 0;
}
