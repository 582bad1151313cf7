// Wire messages of the decentralized B&B protocol (paper Section 5).
//
// The best-known solution is embedded in every message type — the paper's
// information-sharing rule ("circulating the best-known solution among
// processes, embedded in the most frequently sent messages").
//
// Every message travels as one binary frame (core/frame.hpp): the
// simulators charge network latency and handling CPU from the frame's size,
// and the real-time runtime actually ships the bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bnb/problem.hpp"
#include "core/code_list.hpp"
#include "core/path_code.hpp"

namespace ftbb::core {

using NodeId = std::uint32_t;

enum class MsgType : std::uint8_t {
  kWorkRequest = 1,  // idle member asks a random peer for problems
  kWorkGrant = 2,    // pool split shipped to the requester
  kWorkDeny = 3,     // receiver had too little work to share
  kWorkReport = 4,   // contracted list of freshly completed codes
  kTableGossip = 5,  // contracted full completion table (rare, anti-entropy)
  kRootReport = 6,   // termination: the root code, sent to all members
};

[[nodiscard]] const char* to_string(MsgType type);

struct Message {
  MsgType type = MsgType::kWorkRequest;
  NodeId from = 0;
  /// Piggybacked incumbent (minimization; +infinity when none known yet).
  double best_known = bnb::kInfinity;
  /// kWorkGrant payload.
  std::vector<bnb::Subproblem> problems;
  /// kWorkReport / kTableGossip / kRootReport payload. Shared and
  /// immutable: copying a message for fan-out or delivery copies no codes.
  CodeList codes;
  /// Matches grants/denies to the request they answer (stale replies that
  /// arrive after the requester timed out are recognizable).
  std::uint64_t request_id = 0;
  /// On kWorkDeny: the sender has pool work of its own (it merely had too
  /// little to share). A busy deny proves the computation is advancing and
  /// feeds the receiver's progress tracking; an idle deny does not.
  bool busy = false;
  /// Sender-local report batch marker, monotone per incarnation: the worker
  /// stamps each kWorkReport / kTableGossip batch before fanning it out, so
  /// the frame encoder advances its per-sender delta state exactly once per
  /// batch even though the same batch is sent to m peers. A decoded frame
  /// carries the chain's wire sequence here instead.
  std::uint64_t report_seq = 0;

  [[nodiscard]] std::string summary() const;
};

}  // namespace ftbb::core
