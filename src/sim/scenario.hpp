// Declarative scenario engine: one spec = workload + cluster + fault plan.
//
// ScenarioRunner is the single entry point the test suite, the benches, and
// the CLI use to drive an end-to-end run under adversity: it builds the
// requested workload (one of the three WorkloadKinds below), compiles the
// backend-neutral FaultPlan once into a fault::FaultSchedule, and runs it on
// the chosen backend (the paper's decentralized protocol, the centralized
// manager/worker baseline, the DIB baseline, or the protocol on the rt
// runtime). Every backend replays the schedule through its own
// fault::FaultDriver and returns a result built on the shared RunOutcome
// core, from which the runner fills a structured ScenarioReport.
//
// Reproducibility contract: everything in the spec is deterministic, so the
// same spec (including its seed) produces a bit-identical report —
// report.fingerprint() turns any fault schedule into a regression artifact.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bnb/problem.hpp"
#include "central/central.hpp"
#include "core/worker.hpp"
#include "dib/dib.hpp"
#include "sim/cluster.hpp"
#include "sim/fault_plan.hpp"
#include "sim/network.hpp"

namespace ftbb::sim {

enum class Backend : std::uint8_t {
  kFtbb = 0,     // the paper's decentralized fault-tolerant protocol
  kCentral = 1,  // centralized manager/worker baseline (Section 3)
  kDib = 2,      // Finkel & Manber's DIB baseline (Section 3)
  kRt = 3,       // the protocol on the thread-backed real-time runtime
};

[[nodiscard]] const char* to_string(Backend backend);

enum class WorkloadKind : std::uint8_t {
  kKnapsack = 0,
  kSyntheticTree = 1,
  kTsp = 2,  // symmetric TSP, Little-style edge branching (bnb/tsp.hpp)
};

[[nodiscard]] const char* to_string(WorkloadKind kind);

/// Deterministic workload recipe; `size` is knapsack items, tree nodes or
/// TSP cities depending on the kind. Every kind's model knows its optimum
/// (knapsack's DP up to a size limit), so reports verify the computed
/// solution.
struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kSyntheticTree;
  std::uint32_t size = 401;
  std::uint64_t seed = 1;
  double cost_mean = 1e-3;  // virtual seconds per node expansion
  double cost_cv = 0.3;
};

/// A built workload: the model plus whatever storage must outlive it.
struct Workload {
  std::unique_ptr<bnb::IProblemModel> model;
  std::shared_ptr<void> storage;  // e.g. the BasicTree behind a TreeProblem
  std::string name;
};

/// Materializes a WorkloadSpec. Exposed for tests that want the model
/// without going through a full scenario run.
[[nodiscard]] Workload build_workload(const WorkloadSpec& spec);

struct ScenarioSpec {
  std::string name = "scenario";
  Backend backend = Backend::kFtbb;
  WorkloadSpec workload;
  std::uint32_t workers = 4;  // initial population (churn can add more)
  std::uint64_t seed = 1;
  double time_limit = 600.0;  // virtual seconds
  /// Simulation dispatch threads for whichever backend runs the scenario:
  /// > 1 shards per-node event streams across OS threads (reports stay
  /// bit-identical to the sequential kernel); 0 consults FTBB_SIM_THREADS,
  /// else sequential. Never part of the fingerprint. Ignored by kRt, which
  /// always runs one OS thread per live worker incarnation.
  std::uint32_t sim_threads = 0;
  NetConfig net;
  FaultPlan faults;

  core::WorkerConfig worker;       // kFtbb / kRt tuning
  central::CentralConfig central;  // kCentral tuning
  dib::DibConfig dib;              // kDib tuning

  // kRt tuning. On the real-time backend the spec's times are *wall*
  // seconds: fault times and net latencies count from run start on a
  // steady clock, and rt_wall_timeout (not time_limit) caps the run.
  // Reports from kRt are not deterministic (thread scheduling), so their
  // fingerprints are not regression artifacts — protocol outcomes (optimum,
  // termination, crash survival) are what cross-substrate tests assert.
  double rt_time_scale = 1.0;     // wall seconds per virtual B&B second
  double rt_wall_timeout = 60.0;  // hard cap; hitting it fails the run

  /// Preset worker tuning for small/fast test problems (tight timeouts
  /// matched to millisecond-scale node costs).
  void tune_for_small_problems();
};

/// One entry of the report's fault/outcome timeline.
struct ScenarioEvent {
  double time = 0.0;
  FaultKind kind = FaultKind::kCrash;
  std::string detail;

  friend bool operator==(const ScenarioEvent&, const ScenarioEvent&) = default;
};

struct ScenarioReport {
  std::string scenario;
  std::string backend;
  std::string workload;
  std::uint32_t workers = 0;  // total population including churn arrivals
  std::uint64_t seed = 0;

  // -- outcome --
  bool completed = false;  // termination detected / computation concluded
  bool solution_found = false;
  double solution = 0.0;
  bool optimum_known = false;
  double optimum = 0.0;
  bool optimum_matched = false;
  double makespan = 0.0;

  // -- work lost / redone --
  std::uint64_t total_expanded = 0;
  std::uint64_t unique_expanded = 0;
  std::uint64_t redundant_expansions = 0;
  double redundant_cost = 0.0;  // model seconds re-expanding (RunOutcome's)

  // -- bytes gossiped / network --
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_lost = 0;
  std::uint64_t messages_partitioned = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;

  // -- fault schedule, time-ordered --
  std::vector<ScenarioEvent> timeline;

  /// Cluster-wide work-mix ledger (cost-model counters), filled by every
  /// backend. Deliberately EXCLUDED from fingerprint() so pinned golden
  /// fingerprints predate the cost model; the ledger carries its own
  /// fingerprint (WorkLedger::fingerprint) for its own goldens.
  std::optional<core::WorkLedger> work_mix;

  /// FNV-1a over every field above except work_mix (doubles by bit
  /// pattern): two reports are byte-equivalent iff their fingerprints
  /// match, so a single integer per (scenario, seed) is a regression
  /// artifact.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Multi-line human-readable report.
  [[nodiscard]] std::string to_string() const;
};

class ScenarioRunner {
 public:
  /// Builds the workload, compiles the fault plan, runs the backend to
  /// termination (or the time limit), and reports.
  static ScenarioReport run(const ScenarioSpec& spec);
};

}  // namespace ftbb::sim
