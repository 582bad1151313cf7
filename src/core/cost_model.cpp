#include "core/cost_model.hpp"

#include <cstdio>
#include <cstring>

namespace ftbb::core {

const char* to_string(WorkItem item) {
  switch (item) {
    case WorkItem::kExpansions: return "expansions";
    case WorkItem::kEliminated: return "eliminated";
    case WorkItem::kDeadEnds: return "dead_ends";
    case WorkItem::kFeasibleLeaves: return "feasible_leaves";
    case WorkItem::kCompletions: return "completions";
    case WorkItem::kCoveredSkips: return "covered_skips";
    case WorkItem::kContractionCodes: return "contraction_codes";
    case WorkItem::kContractionNodes: return "contraction_nodes";
    case WorkItem::kReportsSent: return "reports_sent";
    case WorkItem::kReportCodesSent: return "report_codes_sent";
    case WorkItem::kTableGossipsSent: return "table_gossips_sent";
    case WorkItem::kMsgsSent: return "msgs_sent";
    case WorkItem::kMsgsReceived: return "msgs_received";
    case WorkItem::kWireBytesSent: return "wire_bytes_sent";
    case WorkItem::kWireBytesReceived: return "wire_bytes_received";
    case WorkItem::kWorkRequestsSent: return "work_requests_sent";
    case WorkItem::kGrantsReceived: return "grants_received";
    case WorkItem::kDeniesReceived: return "denies_received";
    case WorkItem::kRequestTimeouts: return "request_timeouts";
    case WorkItem::kGrantsGiven: return "grants_given";
    case WorkItem::kProblemsGiven: return "problems_given";
    case WorkItem::kRecoveries: return "recoveries";
    case WorkItem::kIncumbentUpdates: return "incumbent_updates";
    case WorkItem::kIncarnations: return "incarnations";
    case WorkItem::kPoolPushes: return "pool_pushes";
    case WorkItem::kPoolPops: return "pool_pops";
    case WorkItem::kSweepEntriesScanned: return "sweep_entries_scanned";
    case WorkItem::kShareExtracted: return "share_extracted";
    case WorkItem::kControllerRetunes: return "controller_retunes";
    case WorkItem::kRedundantExpansions: return "redundant_expansions";
    case WorkItem::kCount: break;
  }
  return "?";
}

void WorkLedger::add(const WorkLedger& other) {
  for (int i = 0; i < kWorkItems; ++i) items[i] += other.items[i];
  for (int k = 0; k < kTimeKinds; ++k) seconds[k] += other.seconds[k];
  redundant_seconds += other.redundant_seconds;
}

namespace {

/// Local FNV-1a 64, same constants as the ScenarioReport fingerprint.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
};

}  // namespace

std::uint64_t WorkLedger::fingerprint() const {
  Fnv fnv;
  for (int i = 0; i < kWorkItems; ++i) fnv.u64(items[i]);
  for (int k = 0; k < kTimeKinds; ++k) fnv.f64(seconds[k]);
  fnv.f64(redundant_seconds);
  return fnv.h;
}

std::string WorkLedger::to_string() const {
  std::string out = "work-mix:";
  char buf[96];
  for (int i = 0; i < kWorkItems; ++i) {
    if (items[i] == 0) continue;
    std::snprintf(buf, sizeof buf, " %s=%llu",
                  core::to_string(static_cast<WorkItem>(i)),
                  static_cast<unsigned long long>(items[i]));
    out += buf;
  }
  static const char* const kTimeNames[kTimeKinds] = {"bb", "contraction",
                                                     "comm", "lb", "idle"};
  for (int k = 0; k < kTimeKinds; ++k) {
    std::snprintf(buf, sizeof buf, " t_%s=%.9g", kTimeNames[k], seconds[k]);
    out += buf;
  }
  std::snprintf(buf, sizeof buf, " t_redundant=%.9g", redundant_seconds);
  out += buf;
  return out;
}

}  // namespace ftbb::core
