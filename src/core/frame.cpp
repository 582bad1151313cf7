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
  // The fanout copies of one batch carry the same list, so its last code
  // is decoded once, when the batch opens.
  if (!state->active) {
    state->active = true;
    state->batch_id = msg.report_seq;
    state->seq = 0;
    if (!msg.codes.empty()) state->cur_last = msg.codes.back();
  } else if (msg.report_seq != state->batch_id) {
    state->batch_id = msg.report_seq;
    state->prev_last = state->cur_last;
    ++state->seq;
    if (!msg.codes.empty()) state->cur_last = msg.codes.back();
  }
  ChainPlan plan;
  plan.seq = state->seq;
  if (state->seq > 0) plan.base = state->prev_last;
  return plan;
}

/// One link of a chain: decisions to trim off the previous code, decisions
/// appended after the shared prefix, then the appended step words. The
/// per-step wire varint IS the stored word; chain_link_size() is its size.
void write_link(std::size_t trim, const std::uint32_t* add, std::size_t n,
                support::ByteWriter& w) {
  w.varint(trim);
  w.varint(n);
  for (std::size_t i = 0; i < n; ++i) w.varint(add[i]);
}

void write_chain(const CodeList& codes, const ChainPlan& plan,
                 support::ByteWriter& w) {
  w.varint(plan.seq);
  if (plan.seq > 0) plan.base.encode(w);
  w.varint(codes.size());
  if (codes.empty()) return;
  // Only the first code is compared, against the base; every later link is
  // a record of the front-coded list.
  const PathView first = codes.front();
  const std::size_t lcp = common_prefix(plan.base, first);
  write_link(plan.base.depth() - lcp, first.words() + lcp, first.depth() - lcp, w);
  if (w.counting_only()) {
    // The rest of the chain was sized when the list was built.
    w.add_counted(codes.chain_bytes());
    return;
  }
  CodeList::Links links(codes);
  std::size_t prev_depth = links.next().depth;
  while (!links.done()) {
    const CodeList::Link l = links.next();
    write_link(prev_depth - l.lcp, l.suffix, l.add(), w);
    prev_depth = l.depth;
  }
}

CodeList read_chain(support::ByteReader& r, std::uint64_t& seq) {
  seq = r.varint();
  // The chain: the base, then each decoded code in turn.
  CodeList::Code code;
  if (r.ok() && seq > 0) code.assign(PathCode::decode(r));
  const std::uint64_t n = r.varint();
  if (!r.fits_count(n, 2)) return {};  // >= trim + add varints each
  CodeList::Builder codes;
  // Steps shared with the previous code cost no input bytes, so only the
  // reservation is bounded by the input; the list grows past it.
  codes.reserve(static_cast<std::size_t>(n),
                2 * static_cast<std::size_t>(n) + r.remaining());
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t trim = r.varint();
    const std::uint64_t add = r.varint();
    if (!r.ok()) break;
    const std::size_t depth = code.depth();
    if (trim > depth) {
      r.mark_corrupt("code chain: trim exceeds the previous code's depth");
      break;
    }
    const std::uint64_t keep = depth - trim;
    if (keep + add > PathCode::kMaxDepth) {
      r.mark_corrupt("code chain: implausible depth");
      break;
    }
    if (!r.fits_count(add)) break;
    // The list stores the exact common prefix with the previous code, which
    // a sender may have trimmed short: extend it over re-added equal words.
    code.reserve(static_cast<std::size_t>(keep + add));
    std::uint32_t* words = code.data();
    std::size_t lcp = static_cast<std::size_t>(keep);
    bool shared = true;
    for (std::uint64_t k = 0; k < add; ++k) {
      const std::uint64_t packed = r.varint();
      if (!r.ok()) break;
      if ((packed >> 1) > static_cast<std::uint64_t>(PathCode::kMaxVar)) {
        r.mark_corrupt("code chain: variable index overflow");
        break;
      }
      const std::size_t at = static_cast<std::size_t>(keep + k);
      shared = shared && at < depth && words[at] == packed;
      if (shared) ++lcp;
      words[at] = static_cast<std::uint32_t>(packed);
    }
    if (!r.ok()) break;
    const std::size_t next = static_cast<std::size_t>(keep + add);
    code.resize(next);
    // Trimmed to the previous code's own length, a code can share at most
    // that much of it.
    lcp = std::min({lcp, depth, next});
    if (CodeList::record_words(codes.size(), next, lcp) >
        CodeList::kMaxWords - codes.body_words()) {
      r.mark_corrupt("code chain: list exceeds the record-word limit");
      break;
    }
    codes.append(code.view(), lcp);
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
