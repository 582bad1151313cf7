// E6 — work-report compression vs load (Section 5.3.2), with the wire
// bytes the reports cost.
//
// "Simulations performed on real B&B trees confirmed that the compression
// rate is better when processors are sufficiently loaded: the taller the
// subtree completed locally, the larger the number of codes that do not
// need to be sent."
//
// Two sweeps on a fixed exhaustive tree:
//   (a) report batch size c — more completions per report => taller merged
//       subtrees => fewer codes per completion;
//   (b) processor count — more processors => fewer completions each => the
//       same batch covers scattered regions => weaker compression.
// Bytes per expanded node are split by report chain (core/frame.hpp): the
// self-contained report that opens each worker's stream, and the delta
// reports chained to the batch before. Results land in
// BENCH_compression.json. `--smoke` shrinks the tree and the sweeps for CI.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_timing.hpp"
#include "bench/workloads.hpp"

namespace {

struct Cell {
  std::string sweep;  // "batch" or "procs"
  std::uint32_t procs = 0;
  std::uint32_t batch = 0;
  double codes_per_completion = 0.0;
  double bytes_per_node = 0.0;  // every frame
  double msgs_per_node = 0.0;
  double self_contained_bytes_per_node = 0.0;  // report frames, sequence 0
  double delta_bytes_per_node = 0.0;           // report frames, chained
  std::uint64_t self_contained = 0;
  std::uint64_t delta = 0;
};

Cell measure(const ftbb::bnb::TreeProblem& problem, std::uint32_t procs,
             std::uint32_t batch, const char* sweep) {
  using namespace ftbb;
  sim::ClusterConfig cfg = bench::small_cluster_config(procs, 17);
  cfg.worker.report_batch = batch;
  cfg.worker.report_flush_interval = 5.0;  // let batches fill
  cfg.worker.compress_against_table = true;
  const sim::ClusterResult res = sim::SimCluster::run(problem, cfg);

  Cell c;
  c.sweep = sweep;
  c.procs = procs;
  c.batch = batch;
  const double nodes = static_cast<double>(res.total_expanded);
  const sim::WireStats& wire = res.wire;
  c.codes_per_completion = static_cast<double>(res.total_report_codes) /
                           static_cast<double>(res.total_completions);
  c.bytes_per_node = static_cast<double>(wire.frame_bytes) / nodes;
  c.msgs_per_node = static_cast<double>(wire.frames) / nodes;
  c.self_contained_bytes_per_node =
      static_cast<double>(wire.report_frame_bytes - wire.delta_report_bytes) /
      nodes;
  c.delta_bytes_per_node = static_cast<double>(wire.delta_report_bytes) / nodes;
  c.self_contained = wire.self_contained_reports;
  c.delta = wire.delta_reports;
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ftbb;
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf("E6 / compression rate vs load (Section 5.3.2 claim)%s\n\n",
              smoke ? " [smoke]" : "");

  bnb::RandomTreeConfig tree_cfg;
  tree_cfg.target_nodes = smoke ? 4001 : 20001;
  tree_cfg.cost_mean = 0.01;
  tree_cfg.seed = 17;
  const bnb::BasicTree tree = bnb::BasicTree::random(tree_cfg);
  bnb::TreeProblem problem(&tree, /*honor_bounds=*/false);

  std::vector<Cell> cells;

  std::printf("(a) batch size sweep at 4 processors (lower = better)\n");
  const std::vector<std::uint32_t> batches =
      smoke ? std::vector<std::uint32_t>{4, 16}
            : std::vector<std::uint32_t>{2, 4, 8, 16, 32, 64};
  const std::vector<std::uint32_t> procs_sweep =
      smoke ? std::vector<std::uint32_t>{2, 8}
            : std::vector<std::uint32_t>{1, 2, 4, 8, 16, 32};
  auto header = [] {
    return support::TextTable({"batch c", "procs", "codes/compl", "B/node",
                               "msgs/node", "self-contained B/node",
                               "delta B/node"});
  };
  auto add_row = [](support::TextTable& t, const Cell& c) {
    t.row({std::to_string(c.batch), std::to_string(c.procs),
           support::TextTable::num(c.codes_per_completion, 3),
           support::TextTable::num(c.bytes_per_node, 2),
           support::TextTable::num(c.msgs_per_node, 3),
           support::TextTable::num(c.self_contained_bytes_per_node, 3),
           support::TextTable::num(c.delta_bytes_per_node, 2)});
  };
  support::TextTable ta = header();
  for (const std::uint32_t batch : batches) {
    cells.push_back(measure(problem, 4, batch, "batch"));
    add_row(ta, cells.back());
  }
  std::printf("%s\n", ta.render().c_str());

  std::printf("(b) processor sweep at batch c=16\n");
  support::TextTable tb = header();
  for (const std::uint32_t procs : procs_sweep) {
    cells.push_back(measure(problem, procs, 16, "procs"));
    add_row(tb, cells.back());
  }
  std::printf("%s\n", tb.render().c_str());

  FILE* json = bench::open_bench_json("BENCH_compression.json", "compression");
  if (json == nullptr) return 1;
  std::fprintf(json,
               "  \"workload\": \"basic-tree-%llu\",\n  \"smoke\": %s,\n"
               "  \"cells\": [\n",
               static_cast<unsigned long long>(tree_cfg.target_nodes),
               smoke ? "true" : "false");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(
        json,
        "    {\"sweep\": \"%s\", \"procs\": %u, \"batch\": %u, "
        "\"codes_per_completion\": %.4f, \"msgs_per_node\": %.4f, "
        "\"bytes_per_node\": %.4f, "
        "\"self_contained_report_bytes_per_node\": %.4f, "
        "\"delta_report_bytes_per_node\": %.4f, "
        "\"self_contained_reports\": %llu, \"delta_reports\": %llu}%s\n",
        c.sweep.c_str(), c.procs, c.batch, c.codes_per_completion,
        c.msgs_per_node, c.bytes_per_node, c.self_contained_bytes_per_node,
        c.delta_bytes_per_node,
        static_cast<unsigned long long>(c.self_contained),
        static_cast<unsigned long long>(c.delta),
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_compression.json\n");

  std::printf("\nexpected shape: compression improves (codes/completion falls)\n"
              "with larger batches and degrades as the same tree is spread over\n"
              "more processors; past each worker's first report, every report\n"
              "is a delta against the batch before.\n");
  return 0;
}
