// Crash-recovery demonstration (the paper's Figures 5 and 6 scenario).
//
// Runs the same small problem twice on three simulated processors:
//  - failure free,
//  - with two of the three processors crashing at ~85% of the execution.
// The survivor recovers the lost work by complementing its completion table
// and still terminates with the exact optimum. Both runs are rendered as
// Jumpshot-style ASCII timelines.
#include <cstdio>

#include "bnb/basic_tree.hpp"
#include "sim/cluster.hpp"

int main() {
  using namespace ftbb;

  bnb::RandomTreeConfig tree_cfg;
  tree_cfg.target_nodes = 301;
  tree_cfg.cost_mean = 0.02;
  tree_cfg.seed = 7;
  const bnb::BasicTree tree = bnb::BasicTree::random(tree_cfg);
  bnb::TreeProblem problem(&tree);

  sim::ClusterConfig cfg;
  cfg.workers = 3;
  cfg.seed = 7;
  cfg.record_trace = true;
  cfg.worker.report_batch = 4;
  cfg.worker.report_flush_interval = 0.1;
  cfg.worker.table_gossip_interval = 0.4;
  cfg.worker.work_request_timeout = 0.02;

  std::printf("=== run 1: no failures ===\n");
  const sim::ClusterResult ok = sim::SimCluster::run(problem, cfg);
  std::printf("%s", ok.timeline.render_ascii(3, 100).c_str());
  std::printf("solution %.3f (optimum %.3f), makespan %.2fs\n\n", ok.solution,
              tree.optimal_value(), ok.makespan);

  std::printf("=== run 2: processors 1 and 2 crash at 85%% of the execution ===\n");
  sim::ClusterConfig crash_cfg = cfg;
  const double when = ok.makespan * 0.85;
  crash_cfg.crashes = {{1, when}, {2, when}};
  const sim::ClusterResult rec = sim::SimCluster::run(problem, crash_cfg);
  std::printf("%s", rec.timeline.render_ascii(3, 100).c_str());
  std::printf("crash time        : %.2fs\n", when);
  std::printf("survivor solution : %.3f (%s)\n", rec.solution,
              rec.solution == tree.optimal_value() ? "exact optimum" : "WRONG");
  std::printf("makespan          : %.2fs (+%.0f%% over failure-free)\n", rec.makespan,
              100.0 * (rec.makespan / ok.makespan - 1.0));
  std::printf("recoveries        : %llu complement picks, %llu redundant expansions\n",
              static_cast<unsigned long long>(
                  rec.worker_ledgers[0][core::WorkItem::kRecoveries]),
              static_cast<unsigned long long>(rec.redundant_expansions));
  return rec.all_live_halted && rec.solution == tree.optimal_value() ? 0 : 1;
}
