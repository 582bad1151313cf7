// E5 — Figure 6: the same problem as Figure 5, but two of the three
// processors crash at about 85% of the execution time. "The only processor
// available after this moment is able to solve the problem and terminate."
#include <cstdio>

#include "bnb/basic_tree.hpp"
#include "sim/cluster.hpp"

int main() {
  using namespace ftbb;
  std::printf("E5 / Figure 6: two of three processors crash at ~85%% of the "
              "execution\n\n");

  bnb::RandomTreeConfig tree_cfg;
  tree_cfg.target_nodes = 301;
  tree_cfg.cost_mean = 0.02;
  tree_cfg.cost_cv = 0.3;
  tree_cfg.seed = 65;
  const bnb::BasicTree tree = bnb::BasicTree::random(tree_cfg);
  bnb::TreeProblem problem(&tree, /*honor_bounds=*/false);  // every node is real work

  sim::ClusterConfig cfg;
  cfg.workers = 3;
  cfg.seed = 65;
  cfg.worker.report_batch = 4;
  cfg.worker.report_flush_interval = 0.1;
  cfg.worker.table_gossip_interval = 0.4;
  cfg.worker.work_request_timeout = 0.02;
  cfg.worker.idle_backoff = 0.01;

  // Baseline run to locate "85% of the execution".
  const sim::ClusterResult baseline = sim::SimCluster::run(problem, cfg);
  const double when = baseline.makespan * 0.85;

  sim::ClusterConfig crash_cfg = cfg;
  crash_cfg.record_trace = true;
  crash_cfg.crashes = {{1, when}, {2, when}};
  const sim::ClusterResult res = sim::SimCluster::run(problem, crash_cfg);

  std::printf("%s\n", res.timeline.render_ascii(3, 100).c_str());
  std::printf("failure-free makespan : %.2fs\n", baseline.makespan);
  std::printf("crash injected        : P1 and P2 at %.2fs\n", when);
  std::printf("survivor terminated   : %s at %.2fs (+%.0f%%)\n",
              res.all_live_halted ? "yes" : "NO", res.makespan,
              100.0 * (res.makespan / baseline.makespan - 1.0));
  std::printf("solution              : %.3f (optimum %.3f, %s)\n", res.solution,
              tree.optimal_value(),
              res.solution == tree.optimal_value() ? "exact" : "WRONG");
  std::printf("lost work recovered   : %llu complement recoveries, "
              "%llu redundant expansions\n",
              static_cast<unsigned long long>(
                  res.worker_ledgers[0][core::WorkItem::kRecoveries]),
              static_cast<unsigned long long>(res.redundant_expansions));
  return res.all_live_halted && res.solution == tree.optimal_value() ? 0 : 1;
}
