// E2 — Table 1: simulated execution of the large problem (~79,600 expanded
// nodes, 3.47 s mean node cost, ~76.7 h uniprocessor) on 10..100 processors.
//
// Paper columns: execution time (hours), B&B time %, contraction time %,
// storage space (total MB / redundant MB), communication MB/hour/processor.
//
// Paper's values for reference:
//   procs  exec(h)  BB%     contr%  stor(MB) redun(MB)  MB/h/proc
//   10     7.93     98.11%  0.35%   0.42     0.16       1.01
//   30     2.91     90.42%  5.20%   3.76     1.92       1.40
//   50     2.00     81.19%  11.73%  12.65    6.43       2.34
//   70     1.37     87.32%  2.33%   19.81    10.13      3.16
//   100    1.04     84.40%  1.13%   43.06    21.88      4.56
// Additionally measures the simulation kernel itself: the same Table-1-scale
// search replayed on the sequential and sharded executors (--threads=1,2,4 or
// FTBB_SIM_THREADS), reporting events/second per thread count to
// BENCH_table1.json so the kernel's perf trajectory is tracked across PRs.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_timing.hpp"
#include "bench/workloads.hpp"
#include "bnb/sequential.hpp"

namespace {

/// Thread counts to sweep: "--threads=2,4" wins, else FTBB_SIM_THREADS (a
/// single value, the same semantics every other entry point gives the
/// variable), else {2, 4}. A 1-thread run is always prepended — it is the
/// sequential baseline that speedups and the bit-identity cross-check are
/// measured against.
std::vector<std::uint32_t> thread_counts(int argc, char** argv) {
  std::string list;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) list = argv[i] + 10;
  }
  std::vector<std::uint32_t> counts = {1};  // the sequential baseline, always
  if (list.empty()) {
    if (std::getenv("FTBB_SIM_THREADS") != nullptr) {
      const std::uint32_t env = ftbb::sim::resolve_sim_threads(0);
      if (env > 1) counts.push_back(env);
      return counts;
    }
    list = "2,4";
  }
  const char* p = list.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    const long v = std::strtol(p, &end, 10);
    if (end == p) break;
    if (v > 1) counts.push_back(static_cast<std::uint32_t>(v));
    p = *end == ',' ? end + 1 : end;
  }
  return counts;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ftbb;
  std::printf("E2 / Table 1: large problem on 10..100 processors\n");

  const bnb::BasicTree tree = bench::large_problem();
  bnb::TreeProblem problem(&tree);
  std::printf("problem: %zu-node basic tree, mean cost %.2fs/node, "
              "%.1fh uniprocessor\n\n",
              tree.size(), bench::kLargeNodeCost, tree.total_cost() / 3600.0);

  support::TextTable table({"procs", "exec (h)", "BB %", "contraction %",
                            "storage (MB)", "redundant (MB)", "MB/h/proc"});
  for (const std::uint32_t procs : {10u, 30u, 50u, 70u, 100u}) {
    const sim::ClusterConfig cfg = bench::large_cluster_config(procs);
    const sim::ClusterResult res = sim::SimCluster::run(problem, cfg);
    if (!res.all_live_halted || res.solution != tree.optimal_value()) {
      std::printf("procs=%u FAILED (halted=%d)\n", procs, res.all_live_halted);
      return 1;
    }
    const double total = res.time_all();
    const double hours = res.makespan / 3600.0;
    const double storage_mb =
        static_cast<double>(res.peak_table_bytes_total) / 1e6;
    const double redundant_mb =
        static_cast<double>(res.peak_table_bytes_total -
                            res.peak_table_bytes_unique) / 1e6;
    const double mb_per_proc_hour = static_cast<double>(res.net.bytes_sent) /
                                    1e6 / hours / static_cast<double>(procs);
    table.row({std::to_string(procs), support::TextTable::num(hours, 2),
               support::TextTable::pct(res.time_of(core::CostKind::kBB) / total, 2),
               support::TextTable::pct(
                   res.time_of(core::CostKind::kContraction) / total, 2),
               support::TextTable::num(storage_mb, 2),
               support::TextTable::num(redundant_mb, 2),
               support::TextTable::num(mb_per_proc_hour, 2)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\npaper shape: near-linear speedup to 100 processors with B&B share\n"
              "declining (98%% -> ~84%%); storage grows superlinearly with the\n"
              "processor count and is dominated by redundant copies; communication\n"
              "per processor-hour increases with the processor count.\n");

  // -- kernel throughput: Table-1-scale search, sequential vs sharded -------
  std::printf("\nkernel throughput: %llu-node tree, 100 workers, %.3fs/node\n",
              static_cast<unsigned long long>(bench::kLargeNodes),
              bench::kSmallNodeCost);
  const bnb::BasicTree dense = bench::large_problem_dense();
  bnb::TreeProblem dense_problem(&dense);
  sim::ClusterConfig dense_cfg = bench::small_cluster_config(100);
  dense_cfg.storage_sample_interval = 1.0;

  struct Sample {
    std::uint32_t threads = 0;
    std::uint64_t events = 0;
    double wall_seconds = 0.0;
  };
  std::vector<Sample> samples;
  double baseline_solution = 0.0;
  std::uint64_t baseline_events = 0;
  support::TextTable speedup_table(
      {"threads", "events", "wall (s)", "events/s", "speedup"});
  double sequential_wall = 0.0;
  // Threads that share one core measure contention, not a speedup.
  const bool one_core = std::thread::hardware_concurrency() <= 1;
  for (const std::uint32_t threads : thread_counts(argc, argv)) {
    dense_cfg.sim_threads = threads;
    const auto start = std::chrono::steady_clock::now();
    const sim::ClusterResult res = sim::SimCluster::run(dense_problem, dense_cfg);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (!res.all_live_halted || res.solution != dense.optimal_value()) {
      std::printf("threads=%u FAILED (halted=%d)\n", threads, res.all_live_halted);
      return 1;
    }
    if (samples.empty()) {
      baseline_solution = res.solution;
      baseline_events = res.kernel_events;
      sequential_wall = wall;
    } else if (res.solution != baseline_solution ||
               res.kernel_events != baseline_events) {
      std::printf("threads=%u DIVERGED from the sequential run\n", threads);
      return 1;
    }
    samples.push_back(Sample{threads, res.kernel_events, wall});
    speedup_table.row(
        {std::to_string(threads), std::to_string(res.kernel_events),
         support::TextTable::num(wall, 2),
         support::TextTable::num(static_cast<double>(res.kernel_events) / wall, 0),
         one_core ? std::string("n/a")
                  : support::TextTable::num(sequential_wall / wall, 2)});
  }
  std::printf("%s", speedup_table.render().c_str());

  FILE* json = bench::open_bench_json("BENCH_table1.json", "table1");
  if (json == nullptr) return 1;
  std::fprintf(json,
               "  \"workload\": \"basic-tree-%llu@%.3fs\",\n"
               "  \"workers\": 100,\n  \"throughput\": [\n",
               static_cast<unsigned long long>(bench::kLargeNodes),
               bench::kSmallNodeCost);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    char speedup[32] = "null";
    if (!one_core) {
      std::snprintf(speedup, sizeof(speedup), "%.3f",
                    sequential_wall / s.wall_seconds);
    }
    std::fprintf(json,
                 "    {\"threads\": %u, \"events\": %llu, \"wall_seconds\": "
                 "%.6f, \"events_per_sec\": %.0f, \"speedup\": %s}%s\n",
                 s.threads, static_cast<unsigned long long>(s.events),
                 s.wall_seconds,
                 static_cast<double>(s.events) / s.wall_seconds, speedup,
                 i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_table1.json\n");
  return 0;
}
