// perfbench: the measurement harness behind the repo benchmark (run.py).
//
// One invocation runs one named workload in this process:
//
//   perfbench --workload table1-dense --tree-seed T --cluster-seed C
//             --fault-seed F --seconds S --trace 0|1 --out result.json
//
// A workload is a batch of simulations: one, or several whose seeds derive
// from the three given ones (see kWorkloads). The harness runs the batch
// round after round — one sim::SimCluster::run per simulation — while the
// next round still fits in S seconds, timing every call, and times
// generations of the inputs between the calls for the set-up span. Every
// call is checked: the exact optimum where the run terminates, message and
// expansion conservation everywhere, and bit-identical simulated results
// for every run of one input. Every input runs on the sequential kernel.
// With --trace 1 it runs twice more: with TimedModel, a decorator that
// records a span around every eval/bound_of, and on the sharded kernel. The
// traced run so yields the model layer's self time and the sharded
// executor's speed-up, and proves that neither the decorator nor the
// executor changes the simulation.
//
// The simulator is driven only through public calls; every span comes from
// this file. Results go to --out as one JSON object that starts with the
// provenance preamble of bench/bench_timing.hpp; run.py aggregates it.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_timing.hpp"
#include "bench/workloads.hpp"
#include "fault/schedule.hpp"
#include "sim/cluster.hpp"
#include "sim/fault_plan.hpp"
#include "sim/scenario.hpp"
#include "support/rng.hpp"

namespace {

using namespace ftbb;

constexpr std::uint32_t kTable1Workers = 100;
constexpr std::uint32_t kStormWorkers = 100000;
constexpr std::uint32_t kNodesPerRack = 32;
constexpr std::uint32_t kRacksPerCampus = 8;
/// Dispatch threads of a traced run's sharded replay. Two leave half of a
/// 4-core host to its other tenants; four made the timings useless.
constexpr std::uint32_t kShards = 2;

struct Seeds {
  std::uint64_t tree = 1;
  std::uint64_t cluster = 1;
  std::uint64_t fault = 1;
};

/// Everything one SimCluster::run consumes, generated from the seeds.
struct Inputs {
  bnb::BasicTree tree;
  fault::FaultSchedule schedule;
  sim::ClusterConfig cfg;
  /// Whether the run must terminate with tree.optimal_value(); the storm
  /// runs are truncated at a virtual horizon and never reach it.
  bool expect_optimum = true;
};

void apply_schedule(const fault::FaultSchedule& schedule, sim::ClusterConfig& cfg) {
  cfg.loss_rules = schedule.loss_rules;
  for (const fault::CrashAt& c : schedule.crashes) {
    cfg.crashes.push_back(sim::CrashEvent{c.node, c.time});
  }
  for (const fault::ReviveAt& r : schedule.revives) {
    cfg.rejoins.push_back(sim::ReviveEvent{r.node, r.time});
  }
  cfg.partitions = schedule.partitions;
  cfg.join_times = schedule.join_times;
}

/// The paper's Table-1 tree (79,601 nodes) at Fig.-3 granularity on 100
/// workers, with the small-problem worker tuning except for the request
/// timeout: 0.1 s (10x the mean node cost) instead of 0.03 s. At 0.03 s a
/// busy peer is often taken for a dead one during start-up, and the
/// spurious recovery that follows re-expands up to 90% of the tree on some
/// seeds and almost nothing on others (see perfbench/README.md).
///
/// With `crash_all_but_one`, workers 1..99 crash one at a time in a
/// fault-seeded order, 0.01 virtual s apart from t = 0.5 s, while work is
/// still spreading; worker 0 survives and finishes the search alone,
/// recovering every region the others took down with them.
Inputs table1_inputs(const Seeds& seeds, bool crash_all_but_one) {
  Inputs in{bench::large_problem_dense(), {}, {}, true};
  sim::FaultPlan plan;
  if (crash_all_but_one) {
    std::vector<std::uint32_t> order(kTable1Workers - 1);
    std::iota(order.begin(), order.end(), 1u);
    support::Rng rng(seeds.fault);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
      plan.crash(order[i], 0.5 + 0.01 * static_cast<double>(i));
    }
  }
  in.schedule = fault::FaultSchedule::compile(plan, kTable1Workers);
  in.cfg = bench::small_cluster_config(kTable1Workers, seeds.cluster);
  in.cfg.worker.work_request_timeout = 0.1;
  in.cfg.storage_sample_interval = 1.0;
  apply_schedule(in.schedule, in.cfg);
  return in;
}

/// 100k workers on the LAN/campus/WAN topology under the planetary storm.
/// The fault seed shifts the storm's onset within [0.01, 0.02) virtual s;
/// the run is truncated 0.19 virtual s after onset, so every seed simulates
/// the same storm-relative window.
Inputs storm_inputs(const Seeds& seeds) {
  bnb::RandomTreeConfig tree_cfg;
  tree_cfg.target_nodes = 50001;
  tree_cfg.cost_mean = 2e-3;
  tree_cfg.seed = seeds.tree;
  Inputs in{bnb::BasicTree::random(tree_cfg), {}, {}, false};

  support::Rng rng(seeds.fault);
  const double onset = 0.01 + 0.01 * rng.uniform();
  const sim::FaultPlan plan = sim::FaultPlan::planetary_storm(
      kStormWorkers, kNodesPerRack, kRacksPerCampus, onset, /*scale=*/0.02);
  in.schedule = fault::FaultSchedule::compile(plan, kStormWorkers);

  sim::ScenarioSpec tuned;
  tuned.tune_for_small_problems();
  in.cfg.workers = in.schedule.population;
  in.cfg.worker = tuned.worker;
  in.cfg.per_channel_lookahead = true;
  in.cfg.peer_view_limit = 32;
  in.cfg.seed = seeds.cluster;
  in.cfg.time_limit = onset + 0.19;
  in.cfg.net.topology.nodes_per_rack = kNodesPerRack;
  in.cfg.net.topology.racks_per_campus = kRacksPerCampus;
  apply_schedule(in.schedule, in.cfg);
  return in;
}

struct Workload {
  const char* name;
  /// Simulations per batch. The protocol is chaotic in its seeds — one
  /// all-but-one input may gossip five times the bytes of the next — so a
  /// workload whose single run does not average that out over many workers
  /// runs a batch, and the benchmark reports means over it. Averaging over
  /// inputs beats repeating one input: the repeats differ only by the
  /// machine's noise, which stays nearly constant within a run.
  std::size_t batch;
  Inputs (*make)(const Seeds&);
};

constexpr Workload kWorkloads[] = {
    {"table1-dense", 3, [](const Seeds& s) { return table1_inputs(s, false); }},
    {"all-but-one", 32, [](const Seeds& s) { return table1_inputs(s, true); }},
    {"planetary-storm-100k", 1, storm_inputs},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// The seeds of simulation `index` of a batch; index 0 keeps the given ones.
Seeds batch_seeds(const Seeds& seeds, std::size_t index) {
  if (index == 0) return seeds;
  return Seeds{support::mix64(seeds.tree, index), support::mix64(seeds.cluster, index),
               support::mix64(seeds.fault, index)};
}

/// Timing decorator passed to SimCluster::run in place of the problem
/// model. It records a span around every eval/bound_of; those spans are
/// leaves (the model calls nothing back), so their summed duration is the
/// model layer's self time. They are folded into counters as they close
/// rather than stored one by one — a run closes ~10^5 of them, from every
/// dispatch thread.
class TimedModel final : public bnb::IProblemModel {
 public:
  explicit TimedModel(const bnb::IProblemModel& inner) : inner_(inner) {}

  [[nodiscard]] double root_bound() const override { return inner_.root_bound(); }
  [[nodiscard]] bnb::NodeEval eval(const core::PathCode& code) const override {
    const auto start = std::chrono::steady_clock::now();
    bnb::NodeEval out = inner_.eval(code);
    close_span(evals_, start);
    return out;
  }
  [[nodiscard]] double bound_of(const core::PathCode& code) const override {
    const auto start = std::chrono::steady_clock::now();
    const double bound = inner_.bound_of(code);
    close_span(rebounds_, start);
    return bound;
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::optional<double> known_optimal() const override {
    return inner_.known_optimal();
  }

  [[nodiscard]] std::uint64_t evals() const { return evals_.load(); }
  [[nodiscard]] std::uint64_t rebounds() const { return rebounds_.load(); }
  [[nodiscard]] double self_seconds() const { return 1e-9 * static_cast<double>(nanos_.load()); }

 private:
  void close_span(std::atomic<std::uint64_t>& calls,
                  std::chrono::steady_clock::time_point start) const {
    const auto nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - start);
    nanos_.fetch_add(static_cast<std::uint64_t>(nanos.count()), std::memory_order_relaxed);
    calls.fetch_add(1, std::memory_order_relaxed);
  }

  const bnb::IProblemModel& inner_;
  mutable std::atomic<std::uint64_t> evals_{0};
  mutable std::atomic<std::uint64_t> rebounds_{0};
  mutable std::atomic<std::uint64_t> nanos_{0};
};

double process_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Returns freed heap to the system and restarts the kernel's peak-RSS
/// watermark, so peak_rss_mb() afterwards is the peak of what runs next.
/// Where /proc/self/clear_refs is unavailable the watermark stays
/// process-wide.
void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // both are KiB
}

struct Span {
  const char* name;
  double start;  // seconds since the harness started
  double seconds;
};

/// One SimCluster::run and what the benchmark reads from it.
struct Rep {
  std::size_t sim = 0;  // index in the batch
  bool traced = false;
  std::uint32_t threads = 1;  // dispatch threads
  double run_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  sim::ClusterResult res;
  std::uint64_t model_evals = 0;
  std::uint64_t model_rebounds = 0;
  double model_self_s = 0.0;
  std::uint64_t fingerprint = 0;
  std::string failure;  // empty when every check passed
};

/// FNV-1a over the simulated outcome: the counters the benchmark reports
/// plus the cluster-wide ledger's own fingerprint. Two runs of one input
/// must agree on it bit for bit, whatever the executor or the decorator.
std::uint64_t sim_fingerprint(const sim::ClusterResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  std::uint64_t makespan_bits = 0;
  std::memcpy(&makespan_bits, &r.makespan, sizeof makespan_bits);
  fold(makespan_bits);
  fold(r.kernel_events);
  fold(r.total_expanded);
  fold(r.unique_expanded);
  fold(r.redundant_expansions);
  fold(r.net.messages_sent);
  fold(r.net.messages_delivered);
  fold(r.net.messages_lost);
  fold(r.net.messages_partitioned);
  fold(r.net.bytes_sent);
  fold(r.wire.frames);
  fold(r.wire.frame_bytes);
  fold(r.peak_table_bytes_total);
  fold(r.peak_table_bytes_unique);
  fold(r.work.fingerprint());
  return h;
}

/// The correctness gate. It pins no golden counter: only the optimum the
/// tree itself defines, and conservation laws any protocol must keep.
std::string check(const Inputs& in, const sim::ClusterResult& r) {
  if (in.expect_optimum) {
    if (!r.all_live_halted) return "did not terminate";
    if (r.solution != in.tree.optimal_value()) return "wrong optimum";
  }
  const std::uint64_t accounted =
      r.net.messages_delivered + r.net.messages_lost + r.net.messages_partitioned;
  if (accounted > r.net.messages_sent) return "more messages accounted than sent";
  if (r.unique_expanded + r.redundant_expansions != r.total_expanded) {
    return "expansions do not add up";
  }
  return {};
}

Rep run_once(const Inputs& in, std::size_t sim, bool traced, std::uint32_t threads,
             std::vector<Span>& spans, double origin) {
  sim::ClusterConfig cfg = in.cfg;
  cfg.sim_threads = threads;
  const bnb::TreeProblem problem(&in.tree);
  const TimedModel timed(problem);
  const bnb::IProblemModel& model =
      traced ? static_cast<const bnb::IProblemModel&>(timed) : problem;

  Rep rep;
  rep.sim = sim;
  rep.traced = traced;
  rep.threads = threads;
  reset_peak_rss();
  const double cpu0 = process_cpu_seconds();
  const double t0 = bench::now_seconds();
  rep.res = sim::SimCluster::run(model, cfg);
  rep.run_s = bench::now_seconds() - t0;
  rep.cpu_s = process_cpu_seconds() - cpu0;
  rep.peak_rss_mb = peak_rss_mb();
  spans.push_back(Span{traced ? "run.traced" : threads > 1 ? "run.sharded" : "run", t0 - origin,
                       rep.run_s});
  if (traced) {
    rep.model_evals = timed.evals();
    rep.model_rebounds = timed.rebounds();
    rep.model_self_s = timed.self_seconds();
  }
  rep.fingerprint = sim_fingerprint(rep.res);
  rep.failure = check(in, rep.res);
  return rep;
}

void write_rep(FILE* json, const Rep& rep, bool first) {
  const sim::ClusterResult& r = rep.res;
  std::fprintf(json,
               "%s    {\"sim\": %zu, \"traced\": %s, \"threads\": %u, \"run_s\": %.9f, "
               "\"cpu_s\": %.9f, \"peak_rss_mb\": %.6f,\n"
               "     \"failure\": \"%s\", \"fingerprint\": \"%016" PRIx64 "\", "
               "\"halted\": %s, \"makespan\": %.17g,\n"
               "     \"kernel_events\": %" PRIu64 ", \"total_expanded\": %" PRIu64
               ", \"unique_expanded\": %" PRIu64 ", \"redundant_expansions\": %" PRIu64 ",\n",
               first ? "" : ",\n", rep.sim, rep.traced ? "true" : "false", rep.threads,
               rep.run_s, rep.cpu_s, rep.peak_rss_mb, rep.failure.c_str(), rep.fingerprint,
               r.all_live_halted ? "true" : "false", r.makespan, r.kernel_events,
               r.total_expanded, r.unique_expanded, r.redundant_expansions);
  std::fprintf(json,
               "     \"net\": {\"sent\": %" PRIu64 ", \"delivered\": %" PRIu64
               ", \"lost\": %" PRIu64 ", \"partitioned\": %" PRIu64
               ", \"bytes_sent\": %" PRIu64 "},\n"
               "     \"wire\": {\"frames\": %" PRIu64 ", \"frame_bytes\": %" PRIu64
               ", \"report_frame_bytes\": %" PRIu64 "},\n"
               "     \"table\": {\"peak_total_bytes\": %zu, \"peak_unique_bytes\": %zu},\n"
               "     \"model\": {\"evals\": %" PRIu64 ", \"rebounds\": %" PRIu64
               ", \"self_s\": %.9f},\n     \"ledger\": {",
               r.net.messages_sent, r.net.messages_delivered, r.net.messages_lost,
               r.net.messages_partitioned, r.net.bytes_sent, r.wire.frames,
               r.wire.frame_bytes, r.wire.report_frame_bytes, r.peak_table_bytes_total,
               r.peak_table_bytes_unique, rep.model_evals, rep.model_rebounds,
               rep.model_self_s);
  for (int i = 0; i < core::kWorkItems; ++i) {
    std::fprintf(json, "%s\"%s\": %" PRIu64, i > 0 ? ", " : "",
                 core::to_string(static_cast<core::WorkItem>(i)), r.work.items[i]);
  }
  std::fprintf(json, "}}");
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out_path;
  Seeds seeds;
  double seconds = 10.0;
  bool trace = false;
  bool ok = argc % 2 == 1;
  for (int i = 1; i + 1 < argc && ok; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--tree-seed") {
      ok = parse_u64(value, seeds.tree);
    } else if (flag == "--cluster-seed") {
      ok = parse_u64(value, seeds.cluster);
    } else if (flag == "--fault-seed") {
      ok = parse_u64(value, seeds.fault);
    } else if (flag == "--seconds") {
      ok = parse_u64(value, n) && n > 0;
      seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      ok = parse_u64(value, n) && n <= 1;
      trace = n == 1;
    } else {
      ok = false;
    }
  }
  const Workload* spec = find_workload(workload);
  if (!ok || out_path.empty() || spec == nullptr) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --tree-seed N --cluster-seed N "
                 "--fault-seed N --seconds N --trace 0|1 --out FILE\n");
    return 2;
  }

  const double origin = bench::now_seconds();
  std::vector<Span> spans;

  // Set-up: one generation takes milliseconds, and on a shared host
  // compute-bound code runs up to 1.7x slower in some seconds than in
  // others. So set-up is sampled in blocks spread over the whole run — 20
  // generations first, cycling through the batch, then 10 after every
  // simulation run — and run.py takes the median. The runs regenerate their
  // input untimed, one at a time, so the batch's inputs never count toward a
  // run's peak RSS.
  const std::size_t batch = spec->batch;
  std::vector<double> setup_s;
  const auto time_setup = [&](std::size_t first, std::size_t count) {
    for (std::size_t k = first; k < first + count; ++k) {
      const double t0 = bench::now_seconds();
      const Inputs in = spec->make(batch_seeds(seeds, k % batch));
      setup_s.push_back(bench::now_seconds() - t0);
      spans.push_back(Span{"setup", t0 - origin, setup_s.back()});
    }
  };
  time_setup(0, 20);

  // Results are written as each run ends, so no finished run's ClusterResult
  // (tens of MB at 100k workers) is resident while the next one is measured.
  FILE* json = bench::open_bench_json(out_path.c_str(), "perfbench");
  if (json == nullptr) return 1;
  const Inputs probe = spec->make(seeds);
  const fault::FaultSchedule& schedule = probe.schedule;
  std::fprintf(json,
               "  \"workload\": \"%s\",\n"
               "  \"seeds\": {\"tree\": %" PRIu64 ", \"cluster\": %" PRIu64
               ", \"fault\": %" PRIu64 "},\n"
               "  \"batch\": %zu,\n  \"trace\": %s,\n"
               "  \"faults\": {\"crashes\": %zu, \"revives\": %zu, \"joins\": %zu, "
               "\"partitions\": %zu},\n  \"reps\": [\n",
               workload.c_str(), seeds.tree, seeds.cluster, seeds.fault, batch,
               trace ? "true" : "false", schedule.crashes.size(),
               schedule.revives.size(),
               static_cast<std::size_t>(std::count_if(schedule.join_times.begin(),
                                                      schedule.join_times.end(),
                                                      [](double t) { return t > 0.0; })),
               schedule.partitions.size());

  std::vector<std::optional<std::uint64_t>> expected(batch);
  bool first_rep = true;
  const auto record = [&](Rep& rep) {
    std::optional<std::uint64_t>& want = expected[rep.sim];
    if (!want) want = rep.fingerprint;
    if (rep.failure.empty() && rep.fingerprint != *want) {
      rep.failure = "simulated results differ between runs of one input";
    }
    write_rep(json, rep, first_rep);
    first_rep = false;
  };

  // Measured rounds, each running the whole batch: back to back while the
  // next round, predicted to last as long as the previous one, still ends
  // within the budget. A traced run runs every input three times, back to
  // back — plain, decorated, and plain on kShards dispatch threads — because
  // the machine's speed drifts over seconds on a shared host and only
  // adjacent runs see the same conditions.
  const double deadline = bench::now_seconds() + seconds;
  double last_round_s = 0.0;
  for (std::size_t round = 0; round == 0 || bench::now_seconds() + last_round_s <= deadline;
       ++round) {
    const double t0 = bench::now_seconds();
    for (std::size_t i = 0; i < batch; ++i) {
      const Inputs in = spec->make(batch_seeds(seeds, i));
      for (const int leg : {0, 1, 2}) {
        if (leg > 0 && !trace) break;
        Rep rep = run_once(in, i, leg == 1, leg == 2 ? kShards : 1, spans, origin);
        record(rep);
        time_setup(i, 10);
      }
    }
    last_round_s = bench::now_seconds() - t0;
  }

  std::fprintf(json, "\n  ],\n  \"setup_s\": [");
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    std::fprintf(json, "%s%.9f", i > 0 ? ", " : "", setup_s[i]);
  }
  std::fprintf(json, "],\n  \"spans\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::fprintf(json, "    {\"name\": \"%s\", \"start_s\": %.9f, \"seconds\": %.9f}%s\n",
                 spans[i].name, spans[i].start, spans[i].seconds,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  return std::fclose(json) == 0 ? 0 : 1;
}
