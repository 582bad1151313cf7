// Planetary-scale dispatch throughput: how fast the simulation engine
// pushes events through a hierarchical LAN/campus/WAN population under the
// planetary storm (heavy-tailed churn, correlated rack failures, cascading
// cross-tier partitions, background loss).
//
// For each population size the same truncated run (fixed virtual-time
// horizon, so every variant dispatches the identical event set) executes
// three ways:
//
//   * sequential            — the single-threaded kernel baseline;
//   * sharded / barrier     — 4 dispatch threads, classic global-barrier
//                             lookahead (every window bounded by the one
//                             rack-tier minimum latency);
//   * sharded / channel     — 4 dispatch threads, per-channel lookahead
//                             (windows bounded per shard pair by the
//                             campus/WAN tier floors).
//
// All three produce bit-identical simulations — the bench asserts the
// counters match — so the only number that moves is wall-clock events/sec.
// On a single-core CI runner ~1.0x between variants is expected; the curve
// of population vs throughput is the artifact. Each variant also records
// its peak resident memory (the watermark is reset before each run), and
// each row the resident bytes per worker of a run cut before any message
// arrives, which tracks the per-worker footprint as the population grows.
// Results go to BENCH_planetary.json. `--smoke` shrinks populations and
// horizon for CI.
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_timing.hpp"
#include "fault/schedule.hpp"
#include "sim/cluster.hpp"
#include "sim/scenario.hpp"
#include "support/table.hpp"

namespace {

using namespace ftbb;

constexpr std::uint32_t kNodesPerRack = 32;
constexpr std::uint32_t kRacksPerCampus = 8;

struct VariantResult {
  const char* name;
  std::uint32_t threads = 1;
  bool per_channel = false;
  /// How dispatch windows are bounded: "none" (sequential — no windows),
  /// "global-barrier" (conservative global lookahead), or "per-channel"
  /// (pairwise channel lookahead). Recorded in BENCH_planetary.json so the
  /// artifact says which windowing produced each throughput number.
  [[nodiscard]] const char* window_mode() const {
    if (threads <= 1) return "none";
    return per_channel ? "per-channel" : "global-barrier";
  }
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  double peak_rss_mb = 0.0;  // peak resident memory of this variant's run
  // Identity probes: every variant of one row must agree bit-for-bit.
  std::uint64_t kernel_events = 0;
  std::uint64_t total_expanded = 0;
  std::uint64_t messages_sent = 0;
  double makespan = 0.0;
};

struct Row {
  std::uint32_t workers = 0;
  double horizon = 0.0;  // virtual seconds simulated
  std::vector<VariantResult> variants;
  bool identical = true;
  double bytes_per_worker = 0.0;  // resident state per worker once joined
};

core::WorkerConfig tuned_worker() {
  sim::ScenarioSpec spec;
  spec.tune_for_small_problems();
  return spec.worker;
}

Row run_row(std::uint32_t workers, double horizon) {
  Row row{workers, horizon, {}, true};

  sim::FaultPlan plan = sim::FaultPlan::planetary_storm(
      workers, kNodesPerRack, kRacksPerCampus, /*start=*/0.01, /*scale=*/0.02);
  const fault::FaultSchedule schedule =
      fault::FaultSchedule::compile(plan, workers);

  sim::WorkloadSpec workload_spec;
  workload_spec.kind = sim::WorkloadKind::kSyntheticTree;
  workload_spec.size = 50001;
  workload_spec.seed = 9;
  workload_spec.cost_mean = 2e-3;
  const sim::Workload workload = sim::build_workload(workload_spec);

  const auto config_for = [&](std::uint32_t threads, bool per_channel,
                              double time_limit) {
    sim::ClusterConfig cfg;
    cfg.workers = schedule.population;
    cfg.worker = tuned_worker();
    cfg.sim_threads = threads;
    cfg.per_channel_lookahead = per_channel;
    cfg.peer_view_limit = 32;
    cfg.seed = 9;
    cfg.time_limit = time_limit;
    cfg.net.topology.nodes_per_rack = kNodesPerRack;
    cfg.net.topology.racks_per_campus = kRacksPerCampus;
    cfg.loss_rules = schedule.loss_rules;
    for (const fault::CrashAt& c : schedule.crashes) {
      cfg.crashes.push_back(sim::CrashEvent{c.node, c.time});
    }
    for (const fault::ReviveAt& r : schedule.revives) {
      cfg.rejoins.push_back(sim::ReviveEvent{r.node, r.time});
    }
    cfg.partitions = schedule.partitions;
    cfg.join_times = schedule.join_times;
    return cfg;
  };

  // Footprint: a sequential run cut 1 us into the storm, when the initial
  // members have joined and no message can have arrived yet. The resident
  // memory it adds, over the population, is the state each worker carries.
  bench::reset_peak_rss();
  const double resident_mb = bench::peak_rss_mb();
  (void)sim::SimCluster::run(*workload.model, config_for(1, false, 1e-6));
  row.bytes_per_worker = (bench::peak_rss_mb() - resident_mb) * 1024.0 *
                         1024.0 / static_cast<double>(schedule.population);

  const VariantResult kinds[] = {
      {"sequential", 1, false},
      {"sharded/barrier", 4, false},
      {"sharded/channel", 4, true},
  };
  for (const VariantResult& kind : kinds) {
    const sim::ClusterConfig cfg =
        config_for(kind.threads, kind.per_channel, horizon);
    VariantResult v = kind;
    bench::reset_peak_rss();
    const double t0 = bench::now_seconds();
    const sim::ClusterResult res = sim::SimCluster::run(*workload.model, cfg);
    v.wall_seconds = bench::now_seconds() - t0;
    v.peak_rss_mb = bench::peak_rss_mb();
    v.kernel_events = res.kernel_events;
    v.total_expanded = res.total_expanded;
    v.messages_sent = res.net.messages_sent;
    v.makespan = res.makespan;
    v.events_per_sec =
        v.wall_seconds > 0.0
            ? static_cast<double>(res.kernel_events) / v.wall_seconds
            : 0.0;
    row.variants.push_back(v);
  }

  const VariantResult& base = row.variants.front();
  for (const VariantResult& v : row.variants) {
    row.identical = row.identical && v.kernel_events == base.kernel_events &&
                    v.total_expanded == base.total_expanded &&
                    v.messages_sent == base.messages_sent &&
                    v.makespan == base.makespan;
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  std::printf("planetary storm dispatch throughput "
              "(racks of %u, campuses of %u racks)%s\n\n",
              kNodesPerRack, kRacksPerCampus, smoke ? " [smoke]" : "");

  struct Size {
    std::uint32_t workers;
    double horizon;
  };
  // The horizon shrinks as the population grows: event volume scales with
  // workers x virtual time, so this keeps every row seconds-scale while the
  // dispatched-events count still grows with the population.
  std::vector<Size> sizes;
  if (smoke) {
    sizes = {{1000, 0.08}, {4000, 0.04}};
  } else {
    sizes = {{1000, 0.4}, {10000, 0.3}, {100000, 0.2}};
  }

  std::vector<Row> rows;
  bool ok = true;
  for (const Size& s : sizes) {
    Row row = run_row(s.workers, s.horizon);
    ok = ok && row.identical;
    support::TextTable table({"variant", "threads", "events", "wall (s)",
                              "events/s", "vs sequential", "peak RSS (MB)"});
    const double base = row.variants.front().events_per_sec;
    for (const VariantResult& v : row.variants) {
      table.row({v.name, std::to_string(v.threads),
                 std::to_string(v.kernel_events),
                 support::TextTable::num(v.wall_seconds, 3),
                 support::TextTable::num(v.events_per_sec, 0),
                 support::TextTable::num(
                     base > 0.0 ? v.events_per_sec / base : 0.0, 2),
                 support::TextTable::num(v.peak_rss_mb, 1)});
    }
    std::printf("workers=%u horizon=%.2fs identical=%s bytes/worker=%.0f\n%s\n",
                row.workers, row.horizon, row.identical ? "yes" : "NO",
                row.bytes_per_worker, table.render().c_str());
    rows.push_back(std::move(row));
  }

  FILE* json = bench::open_bench_json("BENCH_planetary.json", "planetary");
  if (json == nullptr) return 1;
  std::fprintf(json,
               "  \"topology\": {\"nodes_per_rack\": %u, \"racks_per_campus\": %u},\n"
               "  \"smoke\": %s,\n  \"rows\": [\n",
               kNodesPerRack, kRacksPerCampus, smoke ? "true" : "false");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(json,
                 "    {\"workers\": %u, \"horizon_s\": %.3f, "
                 "\"identical\": %s, \"bytes_per_worker\": %.0f, "
                 "\"variants\": [\n",
                 row.workers, row.horizon, row.identical ? "true" : "false",
                 row.bytes_per_worker);
    for (std::size_t v = 0; v < row.variants.size(); ++v) {
      const VariantResult& vr = row.variants[v];
      std::fprintf(json,
                   "      {\"name\": \"%s\", \"threads\": %u, "
                   "\"window_mode\": \"%s\", "
                   "\"kernel_events\": %llu, \"wall_seconds\": %.4f, "
                   "\"events_per_sec\": %.0f, \"peak_rss_mb\": %.1f}%s\n",
                   vr.name, vr.threads, vr.window_mode(),
                   static_cast<unsigned long long>(vr.kernel_events),
                   vr.wall_seconds, vr.events_per_sec, vr.peak_rss_mb,
                   v + 1 < row.variants.size() ? "," : "");
    }
    std::fprintf(json, "    ]}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_planetary.json\n");
  return ok ? 0 : 1;
}
