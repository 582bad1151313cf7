// The outcome every execution substrate reports.
//
// SimCluster, the centralized and DIB baselines and the rt runtime each
// return a result derived from RunOutcome: the solution, when the run ended,
// the work it took and the traffic it sent. A derived result adds only its
// own counters and its own completion flag, so a report, or an oracle over
// run outcomes, is written once for all four substrates.
#pragma once

#include <cstdint>

#include "bnb/problem.hpp"
#include "core/cost_model.hpp"
#include "sim/network.hpp"

namespace ftbb::sim {

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
  double redundant_cost = 0.0;  // virtual seconds re-expanding (SimCluster)
  Network::Stats net;
  /// Cluster-wide work-mix ledger (cost-model counters).
  core::WorkLedger work;

  /// The coarse ledger of a backend without per-worker protocol counters:
  /// expansions, redundancy and wire traffic from the aggregates above. The
  /// finer WorkItem entries stay zero by design.
  void fill_coarse_work() {
    work[core::WorkItem::kExpansions] = total_expanded;
    work[core::WorkItem::kRedundantExpansions] = redundant_expansions;
    work[core::WorkItem::kMsgsSent] = net.messages_sent;
    work[core::WorkItem::kMsgsReceived] = net.messages_delivered;
    work[core::WorkItem::kWireBytesSent] = net.bytes_sent;
    work[core::WorkItem::kWireBytesReceived] = net.bytes_delivered;
  }
};

}  // namespace ftbb::sim
