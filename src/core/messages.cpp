#include "core/messages.hpp"

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

std::string Message::summary() const {
  std::string s = to_string(type);
  s += " from=" + std::to_string(from);
  if (!problems.empty()) s += " problems=" + std::to_string(problems.size());
  if (!codes.empty()) s += " codes=" + std::to_string(codes.size());
  return s;
}

}  // namespace ftbb::core
