#include "core/messages.hpp"

#include "support/check.hpp"

namespace ftbb::core {

const char* to_string(MsgType type) {
  switch (type) {
    case MsgType::kWorkRequest:
      return "work-request";
    case MsgType::kWorkGrant:
      return "work-grant";
    case MsgType::kWorkDeny:
      return "work-deny";
    case MsgType::kWorkReport:
      return "work-report";
    case MsgType::kTableGossip:
      return "table-gossip";
    case MsgType::kRootReport:
      return "root-report";
  }
  return "?";
}

void Message::encode(support::ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(type));
  w.varint(from);
  w.f64(best_known);
  w.varint(request_id);
  switch (type) {
    case MsgType::kWorkRequest:
      break;
    case MsgType::kWorkDeny:
      w.u8(busy ? 1 : 0);
      break;
    case MsgType::kWorkGrant:
      w.varint(problems.size());
      for (const bnb::Subproblem& p : problems) {
        p.code.encode(w);
        w.f64(p.bound);
      }
      break;
    case MsgType::kWorkReport:
    case MsgType::kTableGossip:
    case MsgType::kRootReport:
      codes.encode(w);
      break;
  }
}

Message Message::decode(support::ByteReader& r) {
  Message m;
  m.type = static_cast<MsgType>(r.u8());
  m.from = static_cast<NodeId>(r.varint());
  m.best_known = r.f64();
  m.request_id = r.varint();
  if (!r.ok()) return m;
  switch (m.type) {
    case MsgType::kWorkRequest:
      break;
    case MsgType::kWorkDeny:
      m.busy = r.u8() != 0;
      break;
    case MsgType::kWorkGrant: {
      const std::uint64_t n = r.varint();
      // A grant element is at least 1 byte of code plus 8 bytes of bound;
      // fits_count bounds the reserve against the actual input size.
      if (!r.fits_count(n, 9)) break;
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
      m.codes = CodeList::decode(r);
      break;
    default:
      // Recoverable with a tolerant reader (the transport drops the frame);
      // still an abort on the trusted in-simulator path.
      r.mark_corrupt("Message::decode: unknown type");
      break;
  }
  return m;
}

std::size_t Message::wire_size() const {
  support::ByteWriter w = support::ByteWriter::counting();
  encode(w);
  return w.size();
}

std::string Message::summary() const {
  std::string s = to_string(type);
  s += " from=" + std::to_string(from);
  if (!problems.empty()) s += " problems=" + std::to_string(problems.size());
  if (!codes.empty()) s += " codes=" + std::to_string(codes.size());
  return s;
}

}  // namespace ftbb::core
