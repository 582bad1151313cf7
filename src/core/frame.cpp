#include "core/frame.hpp"

#include <algorithm>

namespace ftbb::core {

const char* to_string(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk:
      return "ok";
    case DecodeStatus::kTruncated:
      return "truncated";
    case DecodeStatus::kUnknownType:
      return "unknown-type";
    case DecodeStatus::kCorruptPayload:
      return "corrupt-payload";
    case DecodeStatus::kLengthMismatch:
      return "length-mismatch";
  }
  return "?";
}

namespace {

[[nodiscard]] bool known_type(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(MsgType::kWorkRequest) &&
         raw <= static_cast<std::uint8_t>(MsgType::kRootReport);
}

/// Resolved delta decisions for one code chain: the wire sequence and the
/// chain base (shipped in the frame iff seq > 0; the root code otherwise).
struct ChainPlan {
  std::uint64_t seq = 0;
  PathView base;
};

/// Advances the sender's delta state to the batch `msg` belongs to.
/// Idempotent per Message::report_seq: the m fanout copies of one batch all
/// resolve to the same (seq, base), and a frame_size() followed by
/// encode_frame() advances once, not twice. The termination broadcast and
/// stateless senders get a self-contained chain.
ChainPlan plan_chain(const Message& msg, ReportDeltaState* state) {
  const bool chained = msg.type == MsgType::kWorkReport ||
                       msg.type == MsgType::kTableGossip;
  if (state == nullptr || !chained) return {};
  if (!state->active) {
    state->active = true;
    state->batch_id = msg.report_seq;
    state->seq = 0;
  } else if (msg.report_seq != state->batch_id) {
    state->batch_id = msg.report_seq;
    state->prev_last = state->cur_last;
    ++state->seq;
  }
  if (!msg.codes.empty()) state->cur_last = PathCode(msg.codes.back());
  ChainPlan plan;
  plan.seq = state->seq;
  if (state->seq > 0) plan.base = state->prev_last;
  return plan;
}

/// Decisions two codes share from the root.
std::size_t common_prefix(PathView a, PathView b) {
  const std::size_t cap = std::min(a.depth(), b.depth());
  std::size_t n = 0;
  while (n < cap && a.word(n) == b.word(n)) ++n;
  return n;
}

/// One code as (trim, add, steps...) against the previous code in the chain.
/// Straight off the packed words: the per-step wire varint IS the stored
/// word. chain_link_size() is its exact size.
void encode_delta(PathView prev, PathView code, support::ByteWriter& w) {
  const std::size_t lcp = common_prefix(prev, code);
  w.varint(prev.depth() - lcp);  // decisions to trim off the previous code
  w.varint(code.depth() - lcp);  // decisions appended after the shared prefix
  for (std::size_t i = lcp; i < code.depth(); ++i) w.varint(code.word(i));
}

/// Inverse of encode_delta: turns the previous code of the chain into the
/// next one in place. False (with the reader marked) on malformed input.
bool apply_delta(PathCode& code, support::ByteReader& r) {
  const std::uint64_t trim = r.varint();
  const std::uint64_t add = r.varint();
  if (!r.ok()) return false;
  if (trim > code.depth()) {
    r.mark_corrupt("code chain: trim exceeds the previous code's depth");
    return false;
  }
  const std::uint64_t keep = code.depth() - trim;
  if (keep + add > PathCode::kMaxDepth) {
    r.mark_corrupt("code chain: implausible depth");
    return false;
  }
  if (!r.fits_count(add)) return false;
  for (std::uint64_t i = 0; i < trim; ++i) code.pop_step();
  code.reserve(static_cast<std::size_t>(keep + add));
  for (std::uint64_t i = 0; i < add; ++i) {
    const std::uint64_t packed = r.varint();
    if (!r.ok()) return false;
    if ((packed >> 1) > static_cast<std::uint64_t>(PathCode::kMaxVar)) {
      r.mark_corrupt("code chain: variable index overflow");
      return false;
    }
    code.push_word(static_cast<std::uint32_t>(packed));
  }
  return true;
}

void write_chain(const CodeList& codes, const ChainPlan& plan,
                 support::ByteWriter& w) {
  w.varint(plan.seq);
  if (plan.seq > 0) plan.base.encode(w);
  w.varint(codes.size());
  if (codes.empty()) return;
  encode_delta(plan.base, codes[0], w);
  if (w.counting_only()) {
    // The rest of the chain was sized when the list was built.
    w.add_counted(codes.chain_bytes());
    return;
  }
  for (std::size_t i = 1; i < codes.size(); ++i) {
    encode_delta(codes[i - 1], codes[i], w);
  }
}

CodeList read_chain(support::ByteReader& r, std::uint64_t& seq) {
  seq = r.varint();
  PathCode code;  // the chain: the base, then each decoded code in turn
  if (r.ok() && seq > 0) code = PathCode::decode(r);
  const std::uint64_t n = r.varint();
  if (!r.fits_count(n, 2)) return {};  // >= trim + add varints each
  CodeList::Builder codes;
  // Steps shared with the previous code cost no input bytes, so only the
  // reservation is bounded by the input; the list grows past it.
  codes.reserve(static_cast<std::size_t>(n), r.remaining());
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!apply_delta(code, r)) break;
    if (code.depth() > CodeList::kMaxWords - codes.word_count()) {
      r.mark_corrupt("code chain: list exceeds the step-word limit");
      break;
    }
    codes.append(code);
  }
  return codes.finish();
}

Message read_payload(MsgType type, support::ByteReader& r) {
  Message m;
  m.type = type;
  m.from = static_cast<NodeId>(r.varint());
  m.best_known = r.f64();
  m.request_id = r.varint();
  if (!r.ok()) return m;
  switch (type) {
    case MsgType::kWorkRequest:
      break;
    case MsgType::kWorkDeny:
      m.busy = r.u8() != 0;
      break;
    case MsgType::kWorkGrant: {
      const std::uint64_t n = r.varint();
      if (!r.fits_count(n, 9)) break;  // >= 1 byte code + 8 bytes bound each
      m.problems.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        bnb::Subproblem p;
        p.code = PathCode::decode(r);
        p.bound = r.f64();
        if (!r.ok()) break;
        m.problems.push_back(std::move(p));
      }
      break;
    }
    case MsgType::kWorkReport:
    case MsgType::kTableGossip:
    case MsgType::kRootReport:
      m.codes = read_chain(r, m.report_seq);
      break;
  }
  return m;
}

}  // namespace

std::size_t chain_link_size(PathView prev, PathView code) {
  const std::size_t lcp = common_prefix(prev, code);
  std::size_t step_bytes = 0;
  for (std::size_t i = lcp; i < code.depth(); ++i) {
    step_bytes += support::varint_size(code.word(i));
  }
  return chain_link_size(prev.depth() - lcp, code.depth() - lcp, step_bytes);
}

void encode_frame(const Message& msg, ReportDeltaState* state,
                  support::ByteWriter& w) {
  w.u8(static_cast<std::uint8_t>(msg.type));
  w.varint(msg.from);
  w.f64(msg.best_known);
  w.varint(msg.request_id);
  switch (msg.type) {
    case MsgType::kWorkRequest:
      break;
    case MsgType::kWorkDeny:
      w.u8(msg.busy ? 1 : 0);
      break;
    case MsgType::kWorkGrant:
      w.varint(msg.problems.size());
      for (const bnb::Subproblem& p : msg.problems) {
        p.code.encode(w);
        w.f64(p.bound);
      }
      break;
    case MsgType::kWorkReport:
    case MsgType::kTableGossip:
    case MsgType::kRootReport:
      write_chain(msg.codes, plan_chain(msg, state), w);
      break;
  }
}

std::size_t frame_size(const Message& msg, ReportDeltaState* state) {
  support::ByteWriter w = support::ByteWriter::counting();
  encode_frame(msg, state, w);
  return w.size();
}

FrameDecode decode_frame(const std::uint8_t* data, std::size_t size) {
  FrameDecode out;
  if (size == 0) {
    out.status = DecodeStatus::kTruncated;
    return out;
  }
  if (!known_type(data[0])) {
    out.status = DecodeStatus::kUnknownType;
    return out;
  }
  support::ByteReader r(data + 1, size - 1,
                        support::ByteReader::Policy::kTolerant);
  out.msg = read_payload(static_cast<MsgType>(data[0]), r);
  if (!r.ok()) {
    out.status = DecodeStatus::kCorruptPayload;
  } else if (!r.done()) {
    out.status = DecodeStatus::kLengthMismatch;
  } else {
    out.status = DecodeStatus::kOk;
  }
  return out;
}

FrameDecode decode_frame(const std::vector<std::uint8_t>& buf) {
  return decode_frame(buf.data(), buf.size());
}

}  // namespace ftbb::core
