// Binary wire frames: the one encoding every Message travels in, on all four
// substrates. The simulators price a frame by its length (the L of the
// paper's 1.5 + 0.005*L ms latency model) and the real-time runtime ships
// and decodes the bytes.
//
// A frame is the MsgType byte followed by its payload:
//
//     MsgType        1 byte
//     from           varint
//     best_known     8 bytes (IEEE-754 bits, little endian)
//     request_id     varint
//     then by type:
//       kWorkRequest                 nothing
//       kWorkDeny                    busy flag, 1 byte
//       kWorkGrant                   varint count, then per problem its
//                                    code (PathCode::encode) and its bound
//                                    (8 bytes)
//       kWorkReport, kTableGossip,   a code chain: varint wire sequence, the
//       kRootReport                  base code (PathCode::encode, present
//                                    iff the sequence is > 0), varint count,
//                                    then one delta per code
//
// Each code of a chain ships as (trim, add, steps...) against the previous
// code: trim decisions come off the end of the previous code, then add step
// words go on. Report batches and table exports are sorted and clustered,
// so most codes cost a handful of bytes instead of their full depth. The
// first code is delta-coded against the base: the last code of the
// sender's *previous* report batch. The base travels in the frame, so every
// report is self-delimiting and decodable by any receiver (reports fan out
// to m random peers over lossy links; receiver-side delta state would
// strand most of them). A chain of sequence 0 starts from the root and
// needs no base. The termination broadcast (kRootReport) is always such a
// self-contained chain and leaves the delta state alone.
//
// There is no magic, version or length header: the transport hands the
// decoder exactly one frame per buffer, and a decoder that reaches the end
// of the frame with bytes left over reports a length mismatch. A 3-byte
// magic/version/length header cost 22% more wire bytes on the planetary
// storm, whose traffic is mostly small requests and denies.
//
// Sender-side delta memory lives in a ReportDeltaState owned by the
// transport, one per worker *incarnation*: the simulator's WorkerHost
// resets it on revive() and the rt runtime's Incarnation simply dies with
// it, so a revived worker never deltas against a dead predecessor's last
// report — its first post-revive report has wire sequence 0 and no base.
//
// Decoding never trusts the input: corrupt, truncated, oversized-count or
// unknown-type frames come back as a DecodeStatus the transport can drop
// and count, never an abort or an over-allocation.
#pragma once

#include <cstdint>
#include <vector>

#include "core/messages.hpp"
#include "support/bytes.hpp"

namespace ftbb::core {

enum class DecodeStatus : std::uint8_t {
  kOk = 0,
  kTruncated = 1,       // empty input
  kUnknownType = 2,     // first byte outside the MsgType enum
  kCorruptPayload = 3,  // payload ended early or failed validation
  kLengthMismatch = 4,  // bytes left over after one complete frame
};

[[nodiscard]] const char* to_string(DecodeStatus status);

/// Per-sender (per-incarnation) delta memory for report frames. A frame
/// advances it once per Message::report_seq value, so the m fanout copies
/// of one batch encode identically; frame_size() and encode_frame() advance
/// it through the same path and are idempotent for a repeated batch.
struct ReportDeltaState {
  bool active = false;        // a report batch has been encoded this incarnation
  std::uint64_t seq = 0;      // wire sequence of the current batch (0-based)
  std::uint64_t batch_id = 0; // Message::report_seq of the current batch
  PathCode prev_last;         // delta base: last code of the previous batch
  PathCode cur_last;          // last code of the current batch

  void reset() { *this = ReportDeltaState{}; }
};

struct FrameDecode {
  DecodeStatus status = DecodeStatus::kTruncated;
  Message msg;

  [[nodiscard]] bool ok() const { return status == DecodeStatus::kOk; }
};

/// Exact size of one link of a code chain: the varint counts of decisions
/// trimmed off the previous code and of decisions added, then the added
/// step words, which encode to `step_bytes`.
[[nodiscard]] constexpr std::size_t chain_link_size(std::size_t trim,
                                                    std::size_t add,
                                                    std::size_t step_bytes) {
  return support::varint_size(trim) + support::varint_size(add) + step_bytes;
}

/// Exact size of the link that turns `prev` into `code`.
[[nodiscard]] std::size_t chain_link_size(PathView prev, PathView code);

/// Encodes one frame, advancing `state` for report/gossip messages
/// (nullptr: every chain ships self-contained with sequence 0).
void encode_frame(const Message& msg, ReportDeltaState* state,
                  support::ByteWriter& w);

/// Exact encode_frame() size in bytes, advancing `state` identically. O(1)
/// in the length of a code list: only the first code's delta is sized here,
/// the rest of the chain is CodeList::chain_bytes().
[[nodiscard]] std::size_t frame_size(const Message& msg,
                                     ReportDeltaState* state);

/// Decodes one frame. Never aborts, never over-allocates: any malformed
/// input returns a non-kOk status the transport can drop and count.
[[nodiscard]] FrameDecode decode_frame(const std::uint8_t* data,
                                       std::size_t size);
[[nodiscard]] FrameDecode decode_frame(const std::vector<std::uint8_t>& buf);

}  // namespace ftbb::core
