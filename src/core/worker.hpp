// The decentralized, asynchronous, fault-tolerant B&B worker (Section 5).
//
// BnbWorker is the complete per-process algorithm: local pool + on-demand
// load balancing, incumbent circulation, completion tracking with list
// contraction, epidemic work reports, failure recovery by complementing the
// completion table, and almost-implicit termination detection.
//
// The worker is a *reactive state machine*: it is driven exclusively through
// on_start / on_message / on_timer and interacts with the world through an
// IWorkerEnv. This keeps the protocol logic identical across substrates —
// the discrete-event simulator (src/sim) hosts it in virtual time and the
// thread-backed runtime (src/rt) hosts it in real time — and makes the
// algorithm unit-testable with a scripted environment.
//
// Processing discipline (paper Section 6.2): one subproblem is expanded per
// step; the environment delivers pending messages only at step boundaries.
// Consequently a step's cost is charged atomically and "interrupting
// redundant work" takes the form of dropping pool entries that a newly
// received report proves completed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "bnb/pool.hpp"
#include "bnb/problem.hpp"
#include "core/code_set.hpp"
#include "core/cost_model.hpp"
#include "core/messages.hpp"
#include "core/path_code.hpp"
#include "support/rng.hpp"

namespace ftbb::core {

/// What the worker is waiting for while quiescent.
enum class WaitHint : std::uint8_t {
  kNone = 0,          // busy or runnable
  kAwaitingWork = 1,  // work request outstanding -> gap counts as LB time
  kIdle = 2,          // backoff / starved / waiting for reports
  kHalted = 3,        // terminated
};

enum class TimerKind : std::uint8_t {
  kStep = 0,            // run the next expansion / scheduling decision
  kReportFlush = 1,     // stale fresh-completions list must be sent
  kTableGossip = 2,     // periodic full-table anti-entropy push
  kRequestTimeout = 3,  // work request went unanswered
  kBackoff = 4,         // idle pause between failed work-acquisition rounds
};
constexpr int kTimerKinds = 5;

/// How recovery picks among the complement's uncompleted regions
/// (Section 5.3.2 discusses random choice vs. "using the location of the
/// last problem completed locally").
enum class RecoveryPolicy : std::uint8_t {
  kRandom = 0,
  kDeepest = 1,
  kShallowest = 2,
  kNearLastLocal = 3,
};

[[nodiscard]] const char* to_string(RecoveryPolicy policy);

/// CPU-cost constants for protocol work, in seconds. Network latency is the
/// environment's concern; these model the local handling the paper accounts
/// as communication / contraction / load-balancing time.
struct ProtocolCosts {
  double send_fixed = 50e-6;        // per message sent
  double send_per_byte = 2e-9;      // serialization
  double recv_fixed = 50e-6;        // per message received
  double recv_per_byte = 2e-9;      // deserialization
  double contract_per_code = 10e-6;       // per code inserted into a table
  double contract_per_node = 0.3e-6;      // per trie node walked
  double lb_handle = 150e-6;        // per request/grant/deny handled
  double lb_per_problem = 10e-6;    // per subproblem packed or unpacked
};

// Protocol constants: the load-balancing and recovery thresholds every
// substrate and experiment runs with.

/// Linear backoff growth cap: the n-th consecutive deny pauses for
/// min(n, kMaxBackoffSteps) idle backoffs.
inline constexpr std::uint32_t kMaxBackoffSteps = 8;
/// Recovery additionally requires a *stall*: no new completion knowledge,
/// no granted work for kStallRecoveryFactor * request timeout. While
/// information keeps arriving the system is alive and merely busy or scarce
/// (ramp-up, endgame), and complementing would duplicate large regions for
/// nothing. A genuine loss — crashed holder, dropped grant, partition —
/// starves the whole group of progress and trips the detector. Long
/// consecutive-deny streaks (kDenyStreakBeforeRecovery) with a stall also
/// escalate, covering the all-alive-but-work-lost case where no timeout
/// ever fires.
inline constexpr double kStallRecoveryFactor = 10.0;
inline constexpr std::uint32_t kDenyStreakBeforeRecovery = 8;
/// Extra patience while the completion table is still empty: with zero
/// knowledge the complement is the entire root problem, so a wrong suspicion
/// duplicates everything. Ramp-up on coarse problems is exactly this state
/// (no completion exists anywhere yet).
inline constexpr double kEmptyTableStallMultiplier = 25.0;
/// A grant gives away pool size / kGrantDivisor problems, at most
/// kMaxGrantProblems of them.
inline constexpr std::uint32_t kGrantDivisor = 2;
inline constexpr std::uint32_t kMaxGrantProblems = 64;

struct WorkerConfig {
  bnb::SelectRule rule = bnb::SelectRule::kBestFirst;

  // --- work reports (Section 5.3.2) ---
  std::uint32_t report_batch = 8;        // send after c fresh completions
  double report_flush_interval = 1.0;    // ...or when the list goes stale
  std::uint32_t report_fanout = 2;       // m random recipients per report
  double table_gossip_interval = 5.0;    // occasional full-table push
  /// When true, each fresh completion is replaced by its maximal covering
  /// code from the local table before sending (strictly better compression
  /// than contracting the list alone); when false, reports are contracted
  /// only against themselves — the paper's literal scheme.
  bool compress_against_table = true;

  // --- load balancing ---
  double work_request_timeout = 0.05;    // seconds to wait for grant/deny
  std::uint32_t attempts_before_recovery = 3;
  /// When false (default), only request *timeouts* — the signature of a
  /// crashed peer, a lost message, or a partition — count toward the
  /// recovery threshold. Denies mean "alive but nothing to spare" and only
  /// back off. When true, denies count too (the most eager reading of the
  /// paper's "an attempt to get work ... fails"); E8 ablates this: eager
  /// suspicion recovers faster after real failures but duplicates large
  /// regions when work is merely scarce, e.g. during ramp-up.
  bool count_denies_toward_recovery = false;
  double idle_backoff = 0.02;            // pause after each failed attempt
  double initial_stagger = 0.01;         // randomized start offset, avoids a
                                         // t=0 request storm
  std::uint32_t min_pool_to_grant = 2;   // keep at least one problem

  // --- search ---
  bool enable_elimination = true;        // l(v) >= U pruning

  // --- adaptive parameter control (paper Section 7 future work) ---
  /// Cost-model-driven adaptivity: the paper's proposed "flexible scheme for
  /// adapting parameters to runtime informations, such as ... execution time
  /// per problem". When enabled the CostController steers the request
  /// timeout, report batch, and grant sizing from the EWMA-smoothed
  /// expansion cost with hysteresis, and deliberately leaves the idle
  /// backoff and flush interval at their configured base (see
  /// cost_model.hpp for why). Without it, coarse-grained problems under
  /// fine-grained timeouts misread busy peers as dead ones (see E7/E15).
  bool model_adaptivity = false;

  // --- fault tolerance ---
  RecoveryPolicy recovery = RecoveryPolicy::kNearLastLocal;

  ProtocolCosts costs;
};

/// Environment the worker runs in. Implementations: sim::SimCluster
/// (virtual time), rt::Cluster (threads), tests::ScriptedEnv.
class IWorkerEnv {
 public:
  virtual ~IWorkerEnv() = default;

  /// The worker's current local time (advanced by charge()).
  [[nodiscard]] virtual double now() const = 0;

  /// Asynchronously transmits `msg` to peer `to`. The environment charges
  /// send-side CPU cost and models latency/loss.
  virtual void send(NodeId to, Message msg) = 0;

  /// Arms a one-shot timer `delay` seconds from now(); fires
  /// on_timer(kind, gen). Re-arming a kind replaces nothing — stale
  /// generations are filtered by the worker.
  virtual void set_timer(TimerKind kind, double delay, std::uint64_t gen) = 0;

  /// Accounts `seconds` of local work of the given kind; in the simulator
  /// this advances the worker's virtual clock (making it busy).
  virtual void charge(CostKind kind, double seconds) = 0;

  /// Deterministic per-worker randomness.
  virtual support::Rng& rng() = 0;

  /// Current peer set (other members). May change under membership churn:
  /// the span is valid until the next membership change or the next
  /// peers() call, so a worker reads it within one event and never keeps it
  /// across events.
  [[nodiscard]] virtual std::span<const NodeId> peers() const = 0;

  /// Publishes what the worker is waiting for (gap-time attribution).
  virtual void set_wait_hint(WaitHint hint) = 0;

  /// Called once when the worker detects termination and halts.
  virtual void notify_halted() = 0;

  /// Observation hook for redundant-work accounting in harnesses.
  virtual void note_expansion(const PathCode& code, double cost) {
    (void)code;
    (void)cost;
  }

  /// Observation hook: a completion was recorded locally (the simulator
  /// logs it for its union table, the redundant-storage measurement).
  virtual void note_completion(const PathCode& code) { (void)code; }
};

class BnbWorker {
 public:
  /// `model` and `config` are borrowed and must outlive the worker (see
  /// the members below for who owns them in each substrate).
  BnbWorker(NodeId id, const bnb::IProblemModel* model,
            const WorkerConfig* config, IWorkerEnv* env);

  /// `with_root` seeds this worker's pool with the root problem (exactly one
  /// member of the computation starts with it).
  void on_start(bool with_root);

  void on_message(const Message& msg);

  void on_timer(TimerKind kind, std::uint64_t gen);

  // --- observers (tests, harnesses) ---
  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] bool halted() const { return halted_; }
  /// Local termination-detection instant; -1 until the worker halts.
  [[nodiscard]] double halted_at() const { return halted_at_; }
  [[nodiscard]] double incumbent() const { return incumbent_; }
  /// The code of the incumbent's leaf; the root code until this
  /// incarnation finds a leaf itself.
  [[nodiscard]] const PathCode& best_code() const;
  [[nodiscard]] const CodeSet& table() const { return table_; }
  [[nodiscard]] const bnb::ActivePool& pool() const { return pool_; }
  /// The incarnation's counter block. Hosts add the messages, bytes and
  /// seconds they measure to it; everything else the worker counts itself.
  [[nodiscard]] const WorkLedger& work() const { return work_; }
  [[nodiscard]] WorkLedger& work() { return work_; }
  [[nodiscard]] const WorkerConfig& config() const { return *config_; }
  [[nodiscard]] std::size_t fresh_count() const { return fresh_.size(); }
  [[nodiscard]] const CostController& controller() const { return controller_; }

  /// work() plus the pool's maintenance counters, the controller's retunes
  /// and one incarnation. Harnesses add() snapshots across lives and
  /// workers (in canonical id order) and fill the redundant-work fields from
  /// their canonical-order expansion merge.
  [[nodiscard]] WorkLedger work_snapshot() const;

  /// Bytes of hot state that lead the object (the members from id_ through
  /// report_batches_ below): a host that prefetches its worker ahead of the
  /// worker's events covers at least these.
  static constexpr std::size_t kHotBytes = 112;

 private:
  // -- scheduling --
  void continue_work();
  void schedule_step();
  void do_step();

  // -- search --
  void expand(const bnb::Subproblem& p);
  void complete(const PathCode& code);
  void absorb_incumbent(double value);
  void prune_pool_by_bound();
  void prune_pool_covered();

  // -- reports & termination --
  void send_report();
  void send_table_gossip();
  void arm_flush_timer();
  bool maybe_terminate();

  // -- load balancing & recovery --
  void seek_work();
  void handle_work_request(const Message& msg);
  void handle_work_grant(const Message& msg);
  void recover();
  [[nodiscard]] std::size_t pick_recovery_candidate(
      const std::vector<PathCode>& candidates);

  void add_subproblem(bnb::Subproblem p);
  void enter_backoff(std::uint32_t steps);

  // The request timeout and report batch in force: the controller's under
  // WorkerConfig::model_adaptivity, the configured ones otherwise. The idle
  // backoff and flush interval are always the configured ones.
  [[nodiscard]] double effective_request_timeout() const;
  [[nodiscard]] std::uint32_t effective_report_batch() const;

  void note_contraction(std::uint64_t codes, std::uint64_t nodes) {
    work_[WorkItem::kContractionCodes] += codes;
    work_[WorkItem::kContractionNodes] += nodes;
  }

  // Stall detection (see kStallRecoveryFactor).
  void note_progress() { last_progress_ = env_->now(); }
  [[nodiscard]] bool stalled() const;

  // Hot state first: the fields one step of an idle worker's request, deny
  // and backoff loop reads sit together at the front of the object, ahead
  // of the search structures and the cold observers.

  NodeId id_;
  /// Borrowed, not copied: the model and the config must outlive the
  /// worker. Each substrate owns one config for all of its workers and
  /// incarnations — SimCluster's ClusterConfig::worker, rt::Cluster's
  /// RtConfig::worker, the test fixtures' own WorkerConfig — and likewise
  /// one model, the IProblemModel passed to its run().
  const bnb::IProblemModel* model_;
  const WorkerConfig* config_;
  IWorkerEnv* env_;

  double incumbent_ = bnb::kInfinity;
  double last_progress_ = 0.0;

  bool started_ = false;
  bool halted_ = false;
  bool step_scheduled_ = false;
  bool flush_armed_ = false;

  // Load-balancing state: at most one work request outstanding, then a
  // backoff pause after each failed attempt.
  bool request_outstanding_ = false;
  bool backoff_armed_ = false;
  std::uint32_t failed_attempts_ = 0;  // timeouts (and denies if configured)
  std::uint32_t deny_streak_ = 0;      // consecutive denies, for backoff growth
  std::uint64_t request_gen_ = 0;
  std::uint64_t backoff_gen_ = 0;

  std::uint64_t step_gen_ = 0;
  std::uint64_t flush_gen_ = 0;
  std::uint64_t gossip_gen_ = 0;
  /// Batches stamped into Message::report_seq so the frame codec advances
  /// its delta state once per report/gossip batch, not once per fanout copy.
  std::uint64_t report_batches_ = 0;

  WorkLedger work_;
  CodeSet table_;
  bnb::ActivePool pool_;
  std::vector<PathCode> fresh_;  // locally discovered, unreported completions
  /// Scratch for the covering-region views of a report batch, kept so the
  /// per-batch vector allocation stays out of the hot loop.
  std::vector<PathView> report_regions_;

  // Cost-model state (see WorkerConfig::model_adaptivity). The controller
  // observes every expansion regardless of mode (observation is free and
  // keeps the ledger's retune counter meaningful in benches); its outputs
  // steer the worker only when model_adaptivity is set.
  CostController controller_;

  // Written at an improving leaf and at each local completion, which many
  // workers of a large run never reach: each code is allocated on its first
  // write (136 B of PathCode against a pointer).
  std::unique_ptr<PathCode> best_code_;
  std::unique_ptr<PathCode> last_local_completion_;
  double halted_at_ = -1.0;
};

}  // namespace ftbb::core
