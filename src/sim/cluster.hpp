// SimCluster: hosts the decentralized B&B workers in virtual time.
//
// This is the experiment harness of Section 6. Each worker runs behind a
// WorkerHost adapter that implements core::IWorkerEnv:
//
//   * charge() advances the worker's private busy clock — while busy, all
//     deliveries and timer firings queue in an inbox and are handled when
//     the busy period ends, reproducing the paper's discipline that a
//     process "checks to see whether any messages are pending" only after
//     finishing the current subproblem;
//   * gaps between busy periods are attributed to load-balancing wait or
//     idle time from the worker's wait hint, yielding Figure 3's five-way
//     time breakdown;
//   * crashes are injected at absolute times (crash-stop: the worker's
//     pool, table, and unsent reports vanish; in-flight messages to it are
//     dropped on arrival).
//
// The cluster additionally measures what the paper measures: per-category
// times, message counts and bytes, completion-table storage (total and
// redundant, Table 1), redundant expansions, and — optionally — a
// Jumpshot-style activity timeline (Figures 5 and 6).
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "bnb/problem.hpp"
#include "core/worker.hpp"
#include "fault/driver.hpp"
#include "sim/kernel.hpp"
#include "sim/network.hpp"
#include "sim/outcome.hpp"
#include "trace/timeline.hpp"

namespace ftbb::sim {

struct CrashEvent {
  core::NodeId node = 0;
  double time = 0.0;
};

/// A crashed worker re-entering the computation (Section 4's dynamic
/// resource pool: processors "may join and leave at any time"). The revived
/// worker is a fresh incarnation — empty pool, empty completion table, no
/// incumbent — that re-enters the membership and acquires work through the
/// normal load-balancing path. Messages and timers addressed to the dead
/// incarnation are dropped (epoch-guarded), matching crash-stop semantics.
struct ReviveEvent {
  core::NodeId node = 0;
  double time = 0.0;
};

/// The one member seeded with the root problem.
inline constexpr core::NodeId kRootHolder = 0;
/// Kernel events after which a run stops (ClusterResult::hit_event_limit).
inline constexpr std::uint64_t kEventLimit = 200'000'000ULL;

struct ClusterConfig {
  std::uint32_t workers = 4;
  core::WorkerConfig worker;
  NetConfig net;
  std::uint64_t seed = 1;
  /// Simulation dispatch threads: > 1 shards per-worker event streams across
  /// OS threads with conservative lookahead (results are bit-identical to
  /// the sequential kernel); 0 consults FTBB_SIM_THREADS, else sequential.
  std::uint32_t sim_threads = 0;
  /// With a hierarchical net.topology, derive per-channel lookahead and
  /// topology-aligned shard affinity (wider parallel windows across slow
  /// tiers). Off forces the classic single global-barrier lookahead —
  /// results are bit-identical either way; benchmarks use the toggle to
  /// measure what the refinement buys.
  bool per_channel_lookahead = true;
  /// Bounded peer view: 0 (default) exposes the full membership minus self
  /// to every worker — the historical behavior, and O(n^2) memory across n
  /// workers. > 0 exposes only the `peer_view_limit` members that follow a
  /// worker in join order (a ring neighborhood, so gossip still reaches
  /// everyone), which is what makes 10^5+ simulated workers practical.
  std::uint32_t peer_view_limit = 0;
  double time_limit = 1e9;               // virtual seconds
  std::vector<CrashEvent> crashes;
  std::vector<ReviveEvent> rejoins;
  std::vector<Partition> partitions;
  /// Fault-plan loss rules, appended after net.loss_rules by the FaultDriver
  /// (the combined order — base config first, plan second — is what the
  /// per-message survival product multiplies through).
  std::vector<LossRule> loss_rules;
  bool record_trace = false;
  double storage_sample_interval = 0.25; // virtual seconds between samples
  /// Join time per worker (empty: everyone joins at t=0). Models the
  /// dynamically available resource pool of Section 4: late joiners enter
  /// the membership and acquire work through the normal load-balancing
  /// path; peer sets grow as members join (crashes do NOT shrink them —
  /// failures are not detectable, Section 4). The root holder must join
  /// at time 0.
  std::vector<double> join_times;
};

/// Frame-level accounting (core/frame.hpp). Report frames split by their
/// chain: a self-contained one (wire sequence 0) opens an incarnation's
/// report stream, and every later batch deltas against the one before.
struct WireStats {
  std::uint64_t frames = 0;
  std::uint64_t frame_bytes = 0;       // bytes on the wire
  std::uint64_t report_frames = 0;     // kWorkReport + kTableGossip only
  std::uint64_t report_frame_bytes = 0;
  std::uint64_t self_contained_reports = 0;  // wire sequence 0: no delta base
  std::uint64_t delta_reports = 0;           // chained to the previous batch
  std::uint64_t delta_report_bytes = 0;      // the chained ones' share

  void add(const WireStats& o) {
    frames += o.frames;
    frame_bytes += o.frame_bytes;
    report_frames += o.report_frames;
    report_frame_bytes += o.report_frame_bytes;
    self_contained_reports += o.self_contained_reports;
    delta_reports += o.delta_reports;
    delta_report_bytes += o.delta_report_bytes;
  }
};

/// The makespan is the halt instant of the last live worker; the ledger
/// (`work`) sums the per-worker ledgers in host-id order, with the
/// redundant-work fields filled from the canonical-order expansion merge, so
/// it is bit-identical sequential vs sharded.
struct ClusterResult : RunOutcome {
  // -- outcome --
  bool all_live_halted = false;
  bool hit_event_limit = false;
  std::uint64_t kernel_events = 0;  // discrete events the kernel dispatched
  double first_detection = 0.0;  // earliest termination detection

  // -- per worker --
  std::vector<bool> crashed;
  /// Final incumbent of each worker (+inf if none). The correctness theorem
  /// says every live worker that detected termination holds exactly the
  /// global optimum here, not merely the best of them.
  std::vector<double> incumbents;
  /// The current incarnation's termination-detection instant (-1 if it
  /// never halted).
  std::vector<double> halted_at;

  // -- storage (Table 1) --
  std::size_t peak_table_bytes_total = 0;   // sum of all live tables at peak
  std::size_t peak_table_bytes_unique = 0;  // union-table bytes at that instant
  std::size_t final_table_bytes_total = 0;

  // -- network --
  WireStats wire;
  /// Per worker: report delta streams opened, i.e. incarnations that encoded
  /// at least one report/gossip batch. A worker that crashed
  /// mid-stream and revived shows 2 — its revived incarnation restarted the
  /// chain from a self-contained report instead of a dead predecessor's base.
  std::vector<std::uint32_t> report_streams_per_worker;

  trace::Timeline timeline;  // populated when record_trace
};

/// The cluster is its own fault-injection surface: a FaultDriver replays
/// any compiled FaultSchedule through its IFaultBackend capabilities, with
/// injection deadlines on the kernel's control event stream (virtual time).
class SimCluster final : public fault::IFaultBackend, public fault::IFaultClock {
 public:
  /// Builds the cluster, runs it to quiescence (or a limit), and reports.
  static ClusterResult run(const bnb::IProblemModel& model, const ClusterConfig& config);

 private:
  class WorkerHost;
  friend class WorkerHost;

  SimCluster(const bnb::IProblemModel& model, const ClusterConfig& config);
  ~SimCluster();

  // ---- fault::IFaultBackend ----
  void crash(std::uint32_t node) override;
  void revive(std::uint32_t node) override;
  void join(std::uint32_t node) override;
  void abandon_join(std::uint32_t node) override;
  void set_partition(const Partition& partition) override;
  void set_loss_rule(const LossRule& rule) override;

  // ---- fault::IFaultClock ----
  void call_at(double at, Callback fn) override;

  void start();
  void sample_storage();
  [[nodiscard]] bool finished() const;
  /// Bytes of the union completion table at the last storage peak.
  [[nodiscard]] std::size_t peak_union_bytes() const;
  /// Builds the result of a run that ended at `end_time`.
  ClusterResult collect(double end_time);

  const bnb::IProblemModel& model_;
  ClusterConfig config_;
  Kernel kernel_;
  std::unique_ptr<Network> network_;
  std::optional<fault::FaultDriver> driver_;
  /// One host per worker in one array, reserved once and never resized: no
  /// host moves, so workers and closures keep their addresses, and a host's
  /// address is arithmetic on its id, for senders and for the kernel's
  /// dispatch prefetch (Kernel::set_owner_objects) alike.
  std::vector<WorkerHost> hosts_;
  /// Current incarnation per worker, bumped by each revive. Senders read
  /// the destination's epoch here — one dense array instead of a line of
  /// every destination host. Mutated only by control events.
  std::vector<std::uint64_t> epochs_;
  /// Members that have joined so far, reserved to the population so the
  /// peer views' spans into it never dangle; mutated only by control events.
  std::vector<core::NodeId> joined_;
  std::vector<std::uint32_t> join_pos_;  // node id -> index in joined_
  std::uint64_t membership_version_ = 0;

  // Storage peaks. Each host logs its own expansions and completions
  // (ExpansionLog); sample_storage() marks every log at a new peak of the
  // live tables' bytes, and collect() folds the union completion table of
  // that instant from the completions before the marks, crashed
  // incarnations' included.
  std::size_t peak_total_bytes_ = 0;

  std::atomic<std::uint32_t> live_halted_{0};
  std::uint32_t live_count_ = 0;
};

}  // namespace ftbb::sim
