#include "core/frame.hpp"

#include <algorithm>

namespace ftbb::core {

const char* to_string(FrameVersion version) {
  switch (version) {
    case FrameVersion::kLegacy:
      return "legacy";
    case FrameVersion::kV1:
      return "v1";
  }
  return "?";
}

const char* to_string(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk:
      return "ok";
    case DecodeStatus::kTruncated:
      return "truncated";
    case DecodeStatus::kBadMagic:
      return "bad-magic";
    case DecodeStatus::kUnknownVersion:
      return "unknown-version";
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

[[nodiscard]] bool is_report(MsgType type) {
  return type == MsgType::kWorkReport || type == MsgType::kTableGossip;
}

[[nodiscard]] bool known_type(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(MsgType::kWorkRequest) &&
         raw <= static_cast<std::uint8_t>(MsgType::kRootReport);
}

/// Resolved delta decisions for one report frame: the wire sequence and the
/// chain base (shipped in the frame iff seq > 0; the root code otherwise).
struct ReportPlan {
  std::uint64_t seq = 0;
  PathView base;
};

/// Advances the sender's delta state to the batch `msg` belongs to.
/// Idempotent per Message::report_seq: the m fanout copies of one batch all
/// resolve to the same (seq, base), and a frame_size() followed by encode()
/// advances once, not twice.
ReportPlan plan_report(const Message& msg, ReportDeltaState* state) {
  if (state == nullptr) return {};
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
  ReportPlan plan;
  plan.seq = state->seq;
  if (state->seq > 0) plan.base = state->prev_last;
  return plan;
}

/// One code as (trim, add, steps...) against the previous code in the chain.
/// Straight off the packed words: the per-step wire varint IS the stored
/// word, and the shared prefix is a word comparison.
void encode_delta(PathView prev, PathView code, support::ByteWriter& w) {
  std::size_t lcp = 0;
  const std::size_t cap = std::min(prev.depth(), code.depth());
  while (lcp < cap && prev.word(lcp) == code.word(lcp)) ++lcp;
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
    r.mark_corrupt("report delta: trim exceeds base depth");
    return false;
  }
  const std::uint64_t keep = code.depth() - trim;
  if (keep + add > PathCode::kMaxDepth) {
    r.mark_corrupt("report delta: implausible depth");
    return false;
  }
  if (!r.fits_count(add)) return false;
  for (std::uint64_t i = 0; i < trim; ++i) code.pop_step();
  code.reserve(static_cast<std::size_t>(keep + add));
  for (std::uint64_t i = 0; i < add; ++i) {
    const std::uint64_t packed = r.varint();
    if (!r.ok()) return false;
    if ((packed >> 1) > static_cast<std::uint64_t>(PathCode::kMaxVar)) {
      r.mark_corrupt("report delta: variable index overflow");
      return false;
    }
    code.push_word(static_cast<std::uint32_t>(packed));
  }
  return true;
}

void write_v1_payload(const Message& msg, const ReportPlan& plan,
                      support::ByteWriter& w) {
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
    case MsgType::kRootReport:
      // Termination broadcast: one (root) code, flat — never delta-coded.
      msg.codes.encode(w);
      break;
    case MsgType::kWorkReport:
    case MsgType::kTableGossip: {
      w.varint(plan.seq);
      if (plan.seq > 0) plan.base.encode(w);
      w.varint(msg.codes.size());
      PathView prev = plan.base;
      for (const PathView c : msg.codes) {
        encode_delta(prev, c, w);
        prev = c;
      }
      break;
    }
  }
}

Message read_v1_payload(MsgType type, support::ByteReader& r) {
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
    case MsgType::kRootReport:
      m.codes = CodeList::decode(r);
      break;
    case MsgType::kWorkReport:
    case MsgType::kTableGossip: {
      m.report_seq = r.varint();
      PathCode code;  // the chain: the base, then each decoded code in turn
      if (r.ok() && m.report_seq > 0) code = PathCode::decode(r);
      const std::uint64_t n = r.varint();
      if (!r.fits_count(n, 2)) break;  // >= trim + add varints each
      CodeList::Builder codes;
      // Steps shared with the previous code cost no input bytes, so only
      // the reservation is bounded by the input; the list grows past it.
      codes.reserve(static_cast<std::size_t>(n), r.remaining());
      for (std::uint64_t i = 0; i < n; ++i) {
        if (!apply_delta(code, r)) break;
        if (code.depth() > CodeList::kMaxWords - codes.word_count()) {
          r.mark_corrupt("report delta: list exceeds the step-word limit");
          break;
        }
        codes.append(code);
      }
      m.codes = codes.finish();
      break;
    }
  }
  return m;
}

}  // namespace

void FrameCodec::encode(const Message& msg, ReportDeltaState* state,
                        support::ByteWriter& w) const {
  if (version_ == FrameVersion::kLegacy) {
    msg.encode(w);
    return;
  }
  const ReportPlan plan =
      is_report(msg.type) ? plan_report(msg, state) : ReportPlan{};
  support::ByteWriter counter = support::ByteWriter::counting();
  write_v1_payload(msg, plan, counter);
  w.u8(kFrameMagic);
  w.u8(static_cast<std::uint8_t>(FrameVersion::kV1));
  w.u8(static_cast<std::uint8_t>(msg.type));
  w.varint(counter.size());
  write_v1_payload(msg, plan, w);
}

std::size_t FrameCodec::frame_size(const Message& msg,
                                   ReportDeltaState* state) const {
  support::ByteWriter w = support::ByteWriter::counting();
  encode(msg, state, w);
  return w.size();
}

FrameDecode FrameCodec::decode(const std::uint8_t* data, std::size_t size) {
  FrameDecode out;
  if (size == 0) {
    out.status = DecodeStatus::kTruncated;
    return out;
  }
  if (data[0] != kFrameMagic) {
    // Legacy frame: the raw seed-era encoding, first byte is the MsgType.
    if (!known_type(data[0])) {
      out.status = DecodeStatus::kBadMagic;
      return out;
    }
    support::ByteReader r(data, size, support::ByteReader::Policy::kTolerant);
    out.version = FrameVersion::kLegacy;
    out.msg = Message::decode(r);
    if (!r.ok()) {
      out.status = DecodeStatus::kCorruptPayload;
    } else if (!r.done()) {
      out.status = DecodeStatus::kLengthMismatch;
    } else {
      out.status = DecodeStatus::kOk;
    }
    return out;
  }
  support::ByteReader h(data, size, support::ByteReader::Policy::kTolerant);
  (void)h.u8();  // magic, already matched
  const std::uint8_t version = h.u8();
  if (h.ok() && version != static_cast<std::uint8_t>(FrameVersion::kV1)) {
    out.status = DecodeStatus::kUnknownVersion;
    return out;
  }
  const std::uint8_t raw_type = h.u8();
  const std::uint64_t length = h.varint();
  if (!h.ok()) {
    out.status = DecodeStatus::kTruncated;
    return out;
  }
  out.version = FrameVersion::kV1;
  if (!known_type(raw_type)) {
    out.status = DecodeStatus::kUnknownType;
    return out;
  }
  // One frame per buffer: the declared payload must be exactly what's left.
  if (length != h.remaining()) {
    out.status = DecodeStatus::kLengthMismatch;
    return out;
  }
  support::ByteReader payload(data + (size - h.remaining()),
                              static_cast<std::size_t>(length),
                              support::ByteReader::Policy::kTolerant);
  out.msg = read_v1_payload(static_cast<MsgType>(raw_type), payload);
  if (!payload.ok()) {
    out.status = DecodeStatus::kCorruptPayload;
  } else if (!payload.done()) {
    out.status = DecodeStatus::kLengthMismatch;
  } else {
    out.status = DecodeStatus::kOk;
  }
  return out;
}

FrameDecode FrameCodec::decode(const std::vector<std::uint8_t>& buf) {
  return decode(buf.data(), buf.size());
}

}  // namespace ftbb::core
