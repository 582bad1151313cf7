// E4 — Figure 5: execution timeline of a very small problem on three
// processors, no failures (the paper rendered this with MPE/Jumpshot; we
// render the same per-processor activity intervals as an ASCII Gantt chart
// and emit machine-readable CSV).
#include <cstdio>

#include "bnb/basic_tree.hpp"
#include "sim/cluster.hpp"

int main() {
  using namespace ftbb;
  std::printf("E4 / Figure 5: very small problem, 3 processors, no failures\n\n");

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
  cfg.record_trace = true;
  cfg.worker.report_batch = 4;
  cfg.worker.report_flush_interval = 0.1;
  cfg.worker.table_gossip_interval = 0.4;
  cfg.worker.work_request_timeout = 0.02;
  cfg.worker.idle_backoff = 0.01;

  const sim::ClusterResult res = sim::SimCluster::run(problem, cfg);
  std::printf("%s\n", res.timeline.render_ascii(3, 100).c_str());
  std::printf("terminated: %s | solution %.3f (optimum %.3f) | makespan %.2fs\n",
              res.all_live_halted ? "yes" : "NO", res.solution,
              tree.optimal_value(), res.makespan);
  std::printf("every processor detected termination: P0 at %.2fs, P1 at %.2fs, "
              "P2 at %.2fs\n",
              res.halted_at[0], res.halted_at[1], res.halted_at[2]);
  std::printf("\ncsv timeline (first rows):\n");
  const std::string csv = res.timeline.to_csv();
  std::size_t shown = 0;
  for (std::size_t i = 0; i < csv.size() && shown < 8; ++i) {
    std::putchar(csv[i]);
    if (csv[i] == '\n') ++shown;
  }
  std::printf("...\n");
  return res.all_live_halted && res.solution == tree.optimal_value() ? 0 : 1;
}
