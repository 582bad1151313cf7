// The outcome every execution substrate reports.
//
// SimCluster, the centralized and DIB baselines and the rt runtime each
// return a result derived from RunOutcome: the solution, when the run ended,
// the work it took and the traffic it sent. A derived result adds only its
// own counters and its own completion flag, so a report, or an oracle over
// run outcomes, is written once for all four substrates.
//
// Redone work has one account too: every substrate appends each expansion to
// an ExpansionLog, one per worker (one per incarnation on the rt runtime),
// and account_expansions() prices the repeats across all of them.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bnb/problem.hpp"
#include "core/cost_model.hpp"
#include "core/path_code.hpp"
#include "sim/network.hpp"

namespace ftbb::sim {

/// One worker's expansions: an append-only log with one record per
/// expansion — the code's hash, its cost, its depth and its words — packed
/// into blocks that grow geometrically and never move. The model is a pure
/// function of the code, so the cost is identical on every expansion of the
/// same code.
class ExpansionLog {
 public:
  void add(const core::PathCode& code, double cost);

  /// Expansions logged.
  [[nodiscard]] std::size_t size() const { return count_; }

 private:
  friend struct RunOutcome;  // account_expansions() reads the records

  /// Appends a pointer to every record, in insertion order.
  void append_records(std::vector<const std::uint32_t*>& out) const;

  struct Block {
    std::unique_ptr<std::uint32_t[]> words;
    std::uint32_t used = 0;
    std::uint32_t cap = 0;
  };
  std::vector<Block> blocks_;
  std::size_t count_ = 0;
};

struct RunOutcome {
  bool solution_found = false;
  double solution = bnb::kInfinity;
  /// When the run ended: the backend's completion instant, or the limit it
  /// stopped at. Virtual seconds, except wall seconds on the rt runtime.
  double makespan = 0.0;
  bool hit_time_limit = false;  // the rt runtime: its wall timeout
  std::uint64_t total_expanded = 0;
  std::uint64_t unique_expanded = 0;
  std::uint64_t redundant_expansions = 0;  // total - unique
  /// The model's seconds spent re-expanding codes expanded before, on every
  /// substrate: virtual seconds in the simulators, and on the rt runtime the
  /// unscaled model seconds, not the wall seconds its workers slept.
  double redundant_cost = 0.0;
  Network::Stats net;
  /// Cluster-wide work-mix ledger (cost-model counters).
  core::WorkLedger work;

  /// The one expansion account. Fills the expansion totals, the redundant
  /// cost and the ledger's kRedundantExpansions and redundant_seconds from
  /// every worker's log. The repeats are summed in canonical code order, so
  /// the result is bit-identical under any order of `logs` and independent
  /// of event interleaving and thread count.
  void account_expansions(std::span<const ExpansionLog* const> logs);

  /// The coarse ledger of a backend without per-worker protocol counters:
  /// expansions and wire traffic from the aggregates above. The finer
  /// WorkItem entries stay zero by design.
  void fill_coarse_work() {
    work[core::WorkItem::kExpansions] = total_expanded;
    work[core::WorkItem::kMsgsSent] = net.messages_sent;
    work[core::WorkItem::kMsgsReceived] = net.messages_delivered;
    work[core::WorkItem::kWireBytesSent] = net.bytes_sent;
    work[core::WorkItem::kWireBytesReceived] = net.bytes_delivered;
  }
};

}  // namespace ftbb::sim
