#include "core/path_code.hpp"

namespace ftbb::core {

void PathView::encode(support::ByteWriter& w) const {
  w.varint(depth());
  for (std::size_t i = 0; i < depth(); ++i) w.varint(word(i));
}

PathCode PathCode::decode(support::ByteReader& r) {
  const std::uint64_t n = r.varint();
  if (n > kMaxDepth) r.mark_corrupt("PathCode: implausible depth");
  // Every step is at least one input byte: a hostile count cannot make the
  // reserve() below allocate past the input size.
  if (!r.fits_count(n) || !r.ok()) return PathCode{};
  PathCode out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t packed = r.varint();
    if (!r.ok()) return PathCode{};
    if ((packed >> 1) > static_cast<std::uint64_t>(kMaxVar)) {
      r.mark_corrupt("PathCode: variable index overflow");
      return PathCode{};
    }
    out.push_word(static_cast<std::uint32_t>(packed));
  }
  return out;
}

std::size_t PathView::encoded_size() const {
  std::size_t n = support::varint_size(depth());
  for (std::size_t i = 0; i < depth(); ++i) n += support::varint_size(word(i));
  return n;
}

std::string PathCode::to_string() const {
  if (is_root()) return "()";
  std::string s = "(";
  for (std::size_t i = 0; i < depth(); ++i) {
    if (i) s += ",";
    s += "<x" + std::to_string(var(i)) + "," + std::to_string(int(bit(i))) + ">";
  }
  s += ")";
  return s;
}

}  // namespace ftbb::core
