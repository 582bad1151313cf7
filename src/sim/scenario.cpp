#include "sim/scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bnb/basic_tree.hpp"
#include "bnb/knapsack.hpp"
#include "bnb/tsp.hpp"
#include "rt/runtime.hpp"
#include "support/check.hpp"

namespace ftbb::sim {

namespace {

// ---------------------------------------------------------------------------
// Fingerprint: FNV-1a 64 over a canonical byte stream of the report
// ---------------------------------------------------------------------------

class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void b(bool v) { u64(v ? 1 : 0); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Fills the report from the spec, the compiled schedule, the workload and
/// the outcome core every backend returns. `completed` is the backend's own
/// completion flag.
ScenarioReport make_report(const ScenarioSpec& spec,
                           const fault::FaultSchedule& schedule,
                           const Workload& workload, const RunOutcome& outcome,
                           bool completed) {
  ScenarioReport report;
  report.scenario = spec.name;
  report.backend = to_string(spec.backend);
  report.workload = workload.name;
  report.workers = schedule.population;
  report.seed = spec.seed;
  for (const FaultPlan::TimedFault& event : schedule.timeline) {
    report.timeline.push_back(ScenarioEvent{event.time, event.kind, event.detail});
  }
  if (const auto opt = workload.model->known_optimal()) {
    report.optimum_known = true;
    report.optimum = *opt;
  }
  report.completed = completed;
  report.solution_found = outcome.solution_found;
  report.solution = outcome.solution_found ? outcome.solution : 0.0;
  report.optimum_matched = completed && outcome.solution_found &&
                           report.optimum_known &&
                           report.solution == report.optimum;
  report.makespan = outcome.makespan;
  report.total_expanded = outcome.total_expanded;
  report.unique_expanded = outcome.unique_expanded;
  report.redundant_expansions = outcome.redundant_expansions;
  report.redundant_cost = outcome.redundant_cost;
  report.messages_sent = outcome.net.messages_sent;
  report.messages_delivered = outcome.net.messages_delivered;
  report.messages_lost = outcome.net.messages_lost;
  report.messages_partitioned = outcome.net.messages_partitioned;
  report.bytes_sent = outcome.net.bytes_sent;
  report.bytes_delivered = outcome.net.bytes_delivered;
  report.work_mix = outcome.work;
  return report;
}

ScenarioReport run_ftbb(const ScenarioSpec& spec,
                        const fault::FaultSchedule& schedule,
                        const Workload& workload) {
  ClusterConfig cfg;
  cfg.workers = schedule.population;
  cfg.worker = spec.worker;
  cfg.sim_threads = spec.sim_threads;
  cfg.net = spec.net;
  cfg.loss_rules = schedule.loss_rules;
  cfg.seed = spec.seed;
  cfg.time_limit = spec.time_limit;
  for (const fault::CrashAt& c : schedule.crashes) {
    cfg.crashes.push_back(CrashEvent{c.node, c.time});
  }
  for (const fault::ReviveAt& r : schedule.revives) {
    cfg.rejoins.push_back(ReviveEvent{r.node, r.time});
  }
  cfg.partitions = schedule.partitions;
  cfg.join_times = schedule.join_times;

  const ClusterResult res = SimCluster::run(*workload.model, cfg);
  return make_report(spec, schedule, workload, res, res.all_live_halted);
}

ScenarioReport run_central(const ScenarioSpec& spec,
                           const fault::FaultSchedule& schedule,
                           const Workload& workload) {
  central::CentralConfig cfg = spec.central;
  cfg.sim_threads = spec.sim_threads;
  // Network ids shift by one: node 0 is the manager, protocol node i is
  // worker i+1. The manager shares a partition group with protocol node 0.
  const central::CentralResult res = central::CentralSim::run(
      *workload.model, schedule.population, cfg, spec.net, schedule.remapped(1),
      spec.time_limit, spec.seed);
  return make_report(spec, schedule, workload, res, res.completed);
}

ScenarioReport run_dib(const ScenarioSpec& spec,
                       const fault::FaultSchedule& schedule,
                       const Workload& workload) {
  dib::DibConfig cfg = spec.dib;
  cfg.sim_threads = spec.sim_threads;
  const dib::DibResult res =
      dib::DibSim::run(*workload.model, schedule.population, cfg, spec.net,
                       schedule, spec.time_limit, spec.seed);
  return make_report(spec, schedule, workload, res, res.completed);
}

ScenarioReport run_rt(const ScenarioSpec& spec,
                      const fault::FaultSchedule& schedule,
                      const Workload& workload) {
  rt::RtConfig cfg;
  cfg.workers = schedule.population;
  cfg.worker = spec.worker;
  cfg.net = spec.net;
  cfg.seed = spec.seed;
  cfg.time_scale = spec.rt_time_scale;
  cfg.wall_timeout = spec.rt_wall_timeout;
  cfg.faults = schedule;

  // The makespan is in wall seconds, not virtual time.
  const rt::RtResult res = rt::Cluster::run(*workload.model, cfg);
  return make_report(spec, schedule, workload, res,
                     res.all_live_halted && !res.hit_time_limit);
}

}  // namespace

const char* to_string(Backend backend) {
  switch (backend) {
    case Backend::kFtbb:
      return "ftbb";
    case Backend::kCentral:
      return "central";
    case Backend::kDib:
      return "dib";
    case Backend::kRt:
      return "rt";
  }
  return "?";
}

const char* to_string(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kKnapsack:
      return "knapsack";
    case WorkloadKind::kSyntheticTree:
      return "synthetic-tree";
    case WorkloadKind::kTsp:
      return "tsp";
  }
  return "?";
}

Workload build_workload(const WorkloadSpec& spec) {
  Workload w;
  w.name = to_string(spec.kind);
  bnb::NodeCostModel cost;
  cost.mean = spec.cost_mean;
  cost.cv = spec.cost_cv;
  cost.seed = spec.seed;
  switch (spec.kind) {
    case WorkloadKind::kKnapsack: {
      auto inst = bnb::KnapsackInstance::strongly_correlated(spec.size, 50, 0.5,
                                                             spec.seed);
      w.model = std::make_unique<bnb::KnapsackModel>(std::move(inst), cost);
      break;
    }
    case WorkloadKind::kSyntheticTree: {
      bnb::RandomTreeConfig cfg;
      cfg.target_nodes = spec.size;
      cfg.cost_mean = spec.cost_mean;
      cfg.cost_cv = spec.cost_cv;
      cfg.seed = spec.seed;
      auto tree = std::make_shared<bnb::BasicTree>(bnb::BasicTree::random(cfg));
      w.model = std::make_unique<bnb::TreeProblem>(tree.get());
      w.storage = tree;
      break;
    }
    case WorkloadKind::kTsp: {
      bnb::TspOptions opts;
      opts.cities = spec.size;
      opts.cost_mean = spec.cost_mean;
      w.model = std::make_unique<bnb::TspProblem>(spec.seed, opts);
      break;
    }
  }
  FTBB_CHECK(w.model != nullptr);
  return w;
}

void ScenarioSpec::tune_for_small_problems() {
  worker.report_batch = 4;
  worker.report_flush_interval = 0.05;
  worker.report_fanout = 2;
  worker.table_gossip_interval = 0.2;
  worker.work_request_timeout = 0.02;
  worker.idle_backoff = 0.005;
  worker.initial_stagger = 0.002;
  worker.attempts_before_recovery = 3;

  central.batch_size = 4;
  central.reissue_timeout = 0.2;
  central.audit_interval = 0.1;

  dib.work_request_timeout = 0.02;
  dib.request_backoff = 0.01;
  dib.audit_interval = 0.1;
  dib.donation_timeout = 0.5;
}

std::uint64_t ScenarioReport::fingerprint() const {
  Fnv fnv;
  fnv.str(scenario);
  fnv.str(backend);
  fnv.str(workload);
  fnv.u64(workers);
  fnv.u64(seed);
  fnv.b(completed);
  fnv.b(solution_found);
  fnv.f64(solution);
  fnv.b(optimum_known);
  fnv.f64(optimum);
  fnv.b(optimum_matched);
  fnv.f64(makespan);
  fnv.u64(total_expanded);
  fnv.u64(unique_expanded);
  fnv.u64(redundant_expansions);
  fnv.f64(redundant_cost);
  fnv.u64(messages_sent);
  fnv.u64(messages_delivered);
  fnv.u64(messages_lost);
  fnv.u64(messages_partitioned);
  fnv.u64(bytes_sent);
  fnv.u64(bytes_delivered);
  fnv.u64(timeline.size());
  for (const ScenarioEvent& e : timeline) {
    fnv.f64(e.time);
    fnv.u64(static_cast<std::uint64_t>(e.kind));
    fnv.str(e.detail);
  }
  return fnv.value();
}

std::string ScenarioReport::to_string() const {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "scenario %s: %s on %s, %u workers, seed %llu\n",
                scenario.c_str(), backend.c_str(), workload.c_str(), workers,
                static_cast<unsigned long long>(seed));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  outcome: %s, solution %s (%.6g%s), makespan %.3fs\n",
                completed ? "completed" : "DID NOT COMPLETE",
                solution_found ? "found" : "none", solution,
                optimum_known ? (optimum_matched ? ", optimal" : ", SUBOPTIMAL")
                              : "",
                makespan);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  work: %llu expanded, %llu unique, %llu redone (%.3fs)\n",
                static_cast<unsigned long long>(total_expanded),
                static_cast<unsigned long long>(unique_expanded),
                static_cast<unsigned long long>(redundant_expansions),
                redundant_cost);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  net: %llu msgs sent, %llu delivered, %llu lost, %llu "
                "partitioned, %llu bytes\n",
                static_cast<unsigned long long>(messages_sent),
                static_cast<unsigned long long>(messages_delivered),
                static_cast<unsigned long long>(messages_lost),
                static_cast<unsigned long long>(messages_partitioned),
                static_cast<unsigned long long>(bytes_sent));
  out += buf;
  for (const ScenarioEvent& e : timeline) {
    std::snprintf(buf, sizeof(buf), "  t=%.3f %s: %s\n", e.time,
                  sim::to_string(e.kind), e.detail.c_str());
    out += buf;
  }
  if (work_mix.has_value()) {
    out += "  " + work_mix->to_string() + "\n";
    std::snprintf(buf, sizeof(buf), "  work-mix fingerprint: %016llx\n",
                  static_cast<unsigned long long>(work_mix->fingerprint()));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "  fingerprint: %016llx\n",
                static_cast<unsigned long long>(fingerprint()));
  out += buf;
  return out;
}

ScenarioReport ScenarioRunner::run(const ScenarioSpec& spec) {
  const fault::FaultSchedule schedule =
      fault::FaultSchedule::compile(spec.faults, spec.workers);
  Workload workload = build_workload(spec.workload);
  switch (spec.backend) {
    case Backend::kCentral:
      return run_central(spec, schedule, workload);
    case Backend::kDib:
      return run_dib(spec, schedule, workload);
    case Backend::kRt:
      return run_rt(spec, schedule, workload);
    case Backend::kFtbb:
      break;
  }
  return run_ftbb(spec, schedule, workload);
}

}  // namespace ftbb::sim
