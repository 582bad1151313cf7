// The outcome every execution substrate reports.
//
// SimCluster, the centralized and DIB baselines and the rt runtime each
// return a result derived from RunOutcome: the solution, when the run ended,
// the work it took and the traffic it sent. A derived result adds only its
// own counters and its own completion flag, so a report, or an oracle over
// run outcomes, is written once for all four substrates.
//
// Redone work has one account too: every substrate appends each expansion to
// an ExpansionLog, one per worker or network node (one per incarnation on
// the rt runtime), and account_expansions() prices the repeats across all
// of them. The
// simulator's hosts log their completions there as well, which is where its
// union completion table is built from.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bnb/problem.hpp"
#include "core/cost_model.hpp"
#include "core/path_code.hpp"
#include "sim/network.hpp"
#include "support/bytes.hpp"

namespace ftbb::sim {

/// One worker's expansions and completions: an append-only, byte-coded log.
/// A record is a flag byte, the code front-coded against the record before
/// it (varint depth, varint common prefix, a varint per remaining word) and,
/// on an expansion, the model's cost in 8 bytes (the model is a pure
/// function of the code). Blocks grow geometrically and never move; an
/// empty log is one null pointer.
///
/// The simulator logs completions for its union table. Completing the code
/// just expanded only flags that record; any other completion appends a
/// completion-only record. mark() closes the records so far to later flags.
class ExpansionLog {
 public:
  /// Logs an expansion of `code` that cost the model `cost` seconds.
  void add(const core::PathCode& code, double cost) { append(code, kExpanded, cost); }
  /// Logs a completion of `code`.
  void complete(const core::PathCode& code);
  /// Marks the records logged so far (see marked()).
  void mark();

  /// Expansions logged.
  [[nodiscard]] std::size_t size() const { return state_ ? state_->expansions : 0; }
  /// Records logged: the expansions and the completion-only records.
  [[nodiscard]] std::size_t records() const { return state_ ? state_->records : 0; }
  /// Records logged before the last mark() (0 before the first).
  [[nodiscard]] std::size_t marked() const { return state_ ? state_->marked : 0; }

  /// One decoded record. `code` views a buffer that lives for the call.
  struct Record {
    bool expanded;
    bool completed;
    core::PathView code;
    double cost;  // an expansion's; 0 on a completion-only record
  };

  /// Calls fn(const Record&) on the first `n` records, in log order.
  template <typename Fn>
  void decode(Fn&& fn, std::size_t n = ~std::size_t{0}) const {
    if (!state_) return;
    std::vector<std::uint32_t> words;
    words.reserve(state_->last.depth() + 1);  // never null, even for the root
    for (const std::vector<std::uint8_t>& block : state_->blocks) {
      for (support::ByteReader in(block); !in.done() && n > 0; --n) {
        const std::uint8_t flags = in.u8();
        const std::uint64_t depth = in.varint();
        words.resize(in.varint());
        while (words.size() < depth) words.push_back(static_cast<std::uint32_t>(in.varint()));
        const bool expanded = (flags & kExpanded) != 0;
        fn(Record{expanded, (flags & kCompleted) != 0,
                  core::PathView(words.data(), words.size()), expanded ? in.f64() : 0.0});
      }
    }
  }

 private:
  static constexpr std::uint8_t kExpanded = 1;
  static constexpr std::uint8_t kCompleted = 2;

  struct State {
    std::vector<std::vector<std::uint8_t>> blocks;  // reserved, never grown
    core::PathCode last;  // the last record's code: the next one's base
    /// The last record's flag byte while a completion of its code may still
    /// set it: an expansion not followed by another record or a mark.
    std::uint8_t* open = nullptr;
    std::size_t expansions = 0;
    std::size_t records = 0;
    std::size_t marked = 0;
  };

  void append(const core::PathCode& code, std::uint8_t flags, double cost);

  std::unique_ptr<State> state_;
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
  /// One work ledger per worker, network node or rt member, every
  /// incarnation folded, in id order.
  std::vector<core::WorkLedger> worker_ledgers;
  /// The sum of worker_ledgers, with the redundancy fields filled by
  /// account_expansions().
  core::WorkLedger work;

  /// The one expansion account. Fills the expansion totals, the redundant
  /// cost and the ledger's kRedundantExpansions and redundant_seconds from
  /// every worker's log. The repeats are summed in canonical code order, so
  /// the result is bit-identical under any order of `logs` and independent
  /// of event interleaving and thread count.
  void account_expansions(std::span<const ExpansionLog* const> logs);
};

}  // namespace ftbb::sim
