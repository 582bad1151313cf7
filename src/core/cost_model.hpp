// Per-operation work accounting and the cost controller it feeds.
//
// WorkLedger is a flat per-worker, per-incarnation counter block in the
// style of bcdb's CostModel instruction-visitor accounting: every class of
// work the worker performs — node expansions, completion-table contraction,
// pool maintenance, messages and wire bytes shipped, load-balancing rounds,
// recoveries — gets one enum-indexed counter. Ledgers add field-wise and are
// merged across incarnations and workers in canonical (host id) order, so a
// sharded simulation produces bit-identical aggregate ledgers to the
// sequential kernel: per-worker event order is fixed by the kernel's total
// order regardless of thread count, and the merge order is pinned.
//
// CostController turns the observed per-node expansion cost (EWMA-smoothed,
// with a hysteresis band so cheap subtrees don't thrash the outputs) into
// the worker's adaptivity knobs. The deliberate asymmetry against the
// per-knob EWMA scheme it replaced (every waiting parameter scaled with node
// cost): node cost prices *waiting for a busy peer*, not messaging. So the
// controller raises only the request timeout (a busy peer answers at its
// next step boundary, one node away), leaves the idle backoff and report
// flush to the worker's configured values (polling cadence and knowledge
// spread are message-priced, and messages did not get more expensive),
// shrinks the report batch on coarse nodes (each completion now
// carries more work, so holding eight of them back delays the group's
// elimination knowledge by eight node-times), and sizes work grants in
// estimated work-seconds instead of raw problem counts.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>

namespace ftbb::core {

/// One counter per class of work. Keep kCount last; to_string() and the
/// ledger loops iterate the range.
enum class WorkItem : std::uint8_t {
  // -- search --
  kExpansions = 0,
  kEliminated,
  kDeadEnds,
  kFeasibleLeaves,
  kCompletions,
  kCoveredSkips,
  // -- completion-table contraction --
  // Both count the modeled work the simulator charges contraction time
  // for, not host work: per inserted code the nodes a root-to-cover walk
  // of the codes' binary trie visits plus its merges (CodeSet::InsertResult,
  // counted from the codes' common prefixes; no trie is built), per
  // compressed report code its covering walk, and one trie_nodes() charge
  // per table gossip and per recovery complement.
  kContractionCodes,  // codes inserted into a table (local or from reports)
  kContractionNodes,  // modeled trie nodes walked / merged (see above)
  // -- reports & gossip --
  kReportsSent,
  kReportCodesSent,
  kTableGossipsSent,
  // -- wire traffic --
  kMsgsSent,
  kMsgsReceived,
  kWireBytesSent,      // core::frame_size() of every frame shipped
  kWireBytesReceived,
  // -- load balancing --
  kWorkRequestsSent,
  kGrantsReceived,
  kDeniesReceived,
  kRequestTimeouts,
  kGrantsGiven,
  kProblemsGiven,
  // -- fault tolerance --
  kRecoveries,
  kIncumbentUpdates,
  kIncarnations,  // lives merged into this ledger (crash/revive adds one)
  // -- pool maintenance --
  kPoolPushes,
  kPoolPops,
  kSweepEntriesScanned,   // entries visited by prune & covered sweeps
  kShareExtracted,        // problems handed out via extract_for_sharing
  // -- controller --
  kControllerRetunes,     // hysteresis-gated output recomputations
  // -- redundancy (filled by the harness from the canonical-order merge) --
  kRedundantExpansions,
  kCount
};
constexpr int kWorkItems = static_cast<int>(WorkItem::kCount);

[[nodiscard]] const char* to_string(WorkItem item);

/// Cost categories of Figure 3 / Table 1. The worker charges kBB,
/// kContraction, kComm and kLoadBalance explicitly; waiting time is
/// attributed by the environment to kLoadBalance or kIdle from the wait
/// hint the worker publishes.
enum class CostKind : std::uint8_t {
  kBB = 0,
  kContraction = 1,
  kComm = 2,
  kLoadBalance = 3,
  kIdle = 4,
};
constexpr int kCostKinds = 5;

[[nodiscard]] const char* to_string(CostKind kind);

/// Flat additive work accounting: the worker's one counter block. The worker
/// counts its search and protocol work here, its host adds the messages,
/// bytes and seconds it measures. Times are virtual seconds; the rt runtime
/// adds the model's charges unscaled and only sleeps time_scale times each
/// B&B charge, so its times are model seconds too, not wall seconds.
struct WorkLedger {
  std::uint64_t items[kWorkItems] = {};
  double seconds[kCostKinds] = {0, 0, 0, 0, 0};
  double redundant_seconds = 0.0;  // RunOutcome::account_expansions fills it

  [[nodiscard]] std::uint64_t& operator[](WorkItem item) {
    return items[static_cast<int>(item)];
  }
  [[nodiscard]] std::uint64_t operator[](WorkItem item) const {
    return items[static_cast<int>(item)];
  }
  [[nodiscard]] double& time(CostKind kind) {
    return seconds[static_cast<int>(kind)];
  }
  [[nodiscard]] double time(CostKind kind) const {
    return seconds[static_cast<int>(kind)];
  }
  /// Sum of the five categories, busy and idle.
  [[nodiscard]] double time_all() const {
    double t = 0.0;
    for (const double s : seconds) t += s;
    return t;
  }

  /// Field-wise accumulation (incarnation folding, cross-worker aggregation).
  void add(const WorkLedger& other);

  /// FNV-1a over every counter and time field, in declaration order. Two
  /// ledgers fingerprint equal iff they are bit-identical.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Deterministic rendering: nonzero counters (declaration order) plus the
  /// time vector. Stable across platforms — used in golden comparisons.
  [[nodiscard]] std::string to_string() const;
};

/// EWMA + hysteresis policy engine. Pure arithmetic over observed costs —
/// no clocks, no randomness — so its outputs are deterministic functions of
/// the worker's (deterministic) observation stream.
class CostController {
 public:
  /// Request timeout = base + kTimeoutSafety * ewma: long enough that a
  /// busy peer one coarse node away from its step boundary still answers.
  static constexpr double kTimeoutSafety = 2.0;

  CostController() = default;

  /// `report_msg_cost` is the modeled CPU cost of shipping one report batch
  /// (fanout * (send + recv fixed costs)) — the denominator that decides
  /// how much batching a report must amortize.
  void configure(double base_timeout, std::uint32_t base_batch,
                 double report_msg_cost) {
    base_timeout_ = base_timeout;
    base_batch_ = base_batch;
    report_msg_cost_ = report_msg_cost;
  }

  /// Feed one observed expansion cost. Updates the EWMA; retunes outputs
  /// only when the drift leaves the hysteresis band.
  void observe(double cost) {
    if (cost <= 0.0) return;
    ewma_ = (ewma_ == 0.0) ? cost : ewma_ + kEwmaAlpha * (cost - ewma_);
    if (tuned_ewma_ == 0.0 || std::abs(ewma_ - tuned_ewma_) > kHysteresis * tuned_ewma_) {
      tuned_ewma_ = ewma_;
      ++retunes_;
    }
  }

  [[nodiscard]] double request_timeout() const {
    return base_timeout_ + kTimeoutSafety * tuned_ewma_;
  }

  [[nodiscard]] std::uint32_t report_batch() const {
    if (tuned_ewma_ == 0.0 || base_batch_ <= 1) return base_batch_;
    const double ideal =
        std::ceil(report_msg_cost_ / (kBatchCostShare * tuned_ewma_));
    if (ideal >= static_cast<double>(base_batch_)) return base_batch_;
    return std::max<std::uint32_t>(1, static_cast<std::uint32_t>(ideal));
  }

  /// Caps a grant at ~kGrantHorizon request-timeouts of estimated work so a
  /// coarse-grained donor doesn't ship half its pool where three problems
  /// already cover the requester past its next acquisition round.
  [[nodiscard]] std::size_t grant_size(std::size_t suggested) const {
    if (tuned_ewma_ == 0.0) return suggested;
    const double work_cap =
        std::ceil(kGrantHorizon * request_timeout() / tuned_ewma_);
    const auto cap = static_cast<std::size_t>(
        std::max(1.0, std::min(work_cap, 1e9)));
    return std::min(suggested, cap);
  }

  [[nodiscard]] double ewma() const { return ewma_; }
  [[nodiscard]] double tuned_ewma() const { return tuned_ewma_; }
  [[nodiscard]] std::uint64_t retunes() const { return retunes_; }

 private:
  static constexpr double kEwmaAlpha = 0.1;  // expansion-cost smoothing
  /// Grants are sized to keep the requester busy for about this many
  /// request timeouts' worth of estimated work.
  static constexpr double kGrantHorizon = 2.0;
  /// The report batch shrinks so one report amortizes its messaging cost
  /// against at most (batch * ewma) of withheld completion knowledge:
  /// batch = report_msg_cost / (kBatchCostShare * ewma), clamped to
  /// [1, configured batch].
  static constexpr double kBatchCostShare = 2.5e-3;
  /// Relative dead band: outputs recompute only when the EWMA drifts more
  /// than this fraction from the value they were last tuned to, so cheap
  /// subtrees inside a coarse run don't thrash timers.
  static constexpr double kHysteresis = 0.25;

  double base_timeout_ = 0.05;
  std::uint32_t base_batch_ = 8;
  double report_msg_cost_ = 2e-4;
  double ewma_ = 0.0;        // continuously updated
  double tuned_ewma_ = 0.0;  // outputs derive from this; hysteresis-gated
  std::uint64_t retunes_ = 0;
};

}  // namespace ftbb::core
