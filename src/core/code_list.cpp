#include "core/code_list.hpp"

#include <algorithm>
#include <cstring>
#include <new>

#include "core/frame.hpp"

namespace ftbb::core {

namespace {

/// One exactly sized allocation for a sequence of codes or views.
template <typename Codes>
CodeList build(const Codes& codes) {
  std::size_t words = 0;
  for (const PathView c : codes) words += c.depth();
  CodeList::Builder b;
  b.reserve(codes.size(), words);
  for (const PathView c : codes) b.append(c);
  return b.finish();
}

}  // namespace

CodeList::CodeList(std::initializer_list<PathView> codes)
    : CodeList(build(codes)) {}
CodeList::CodeList(std::span<const PathView> codes) : CodeList(build(codes)) {}
CodeList::CodeList(std::span<const PathCode> codes) : CodeList(build(codes)) {}

void CodeList::release(Rep* rep) {
  if (rep == nullptr) return;
  if (rep->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  rep->~Rep();
  ::operator delete(rep);
}

std::vector<PathCode> CodeList::to_vector() const {
  std::vector<PathCode> out;
  out.reserve(size());
  for (const PathView c : *this) out.emplace_back(c);
  return out;
}

bool operator==(const CodeList& a, const CodeList& b) {
  if (a.rep_ == b.rep_) return true;
  const std::size_t n = a.size();
  if (n != b.size()) return false;
  if (n == 0) return true;
  const CodeList::Rep& x = *a.rep_;
  const CodeList::Rep& y = *b.rep_;
  return std::memcmp(x.offsets(), y.offsets(), (n + 1) * sizeof(std::uint32_t)) == 0 &&
         std::memcmp(x.words(), y.words(),
                     x.word_count() * sizeof(std::uint32_t)) == 0;
}

void CodeList::Builder::reserve(std::size_t codes, std::size_t words) {
  if (codes == 0 && words == 0) return;  // an empty list needs no block
  const std::size_t have_codes = size();
  const std::size_t have_words = word_count();
  FTBB_CHECK_MSG(codes <= kMaxWords - have_codes && words <= kMaxWords - have_words,
                 "CodeList: too many codes or step words");
  const std::size_t need_codes = have_codes + codes;
  const std::size_t need_words = have_words + words;
  if (rep_ != nullptr && need_codes <= rep_->code_cap &&
      need_words <= rep_->word_cap) {
    return;
  }
  // Geometric growth, so decoders that cannot pre-size stay amortized O(1).
  std::size_t code_cap = need_codes;
  std::size_t word_cap = need_words;
  if (rep_ != nullptr) {
    code_cap = std::max<std::size_t>(code_cap, std::min<std::size_t>(2 * rep_->code_cap, kMaxWords));
    word_cap = std::max<std::size_t>(word_cap, std::min<std::size_t>(2 * rep_->word_cap, kMaxWords));
  }
  void* block = ::operator new(sizeof(Rep) +
                               (code_cap + 1 + word_cap) * sizeof(std::uint32_t));
  Rep* grown = ::new (block) Rep;
  grown->code_cap = static_cast<std::uint32_t>(code_cap);
  grown->word_cap = static_cast<std::uint32_t>(word_cap);
  grown->offsets()[0] = 0;
  if (rep_ != nullptr) {
    grown->count = rep_->count;
    grown->chain_bytes = rep_->chain_bytes;
    std::memcpy(grown->offsets(), rep_->offsets(),
                (rep_->count + 1) * sizeof(std::uint32_t));
    std::memcpy(grown->words(), rep_->words(),
                have_words * sizeof(std::uint32_t));
    release(rep_);
  }
  rep_ = grown;
}

void CodeList::Builder::append(PathView code) {
  if (size() == 0) {
    append(code, 0);
    return;
  }
  const std::uint32_t* offsets = rep_->offsets();
  const std::uint32_t start = offsets[rep_->count - 1];
  append(code, chain_link_size(PathView(rep_->words() + start,
                                        offsets[rep_->count] - start),
                               code));
}

void CodeList::Builder::append(PathView code, std::size_t link) {
  if (size() == 0) link = 0;  // the first code links to the chain base
  reserve(1, code.depth());
  std::uint32_t* offsets = rep_->offsets();
  const std::uint32_t start = offsets[rep_->count];
  if (!code.is_root()) {  // a default view's null words must not reach memcpy
    std::memcpy(rep_->words() + start, code.words(),
                code.depth() * sizeof(std::uint32_t));
  }
  offsets[++rep_->count] = start + static_cast<std::uint32_t>(code.depth());
  rep_->chain_bytes += link;
}

CodeList CodeList::Builder::finish() {
  Rep* rep = rep_;
  rep_ = nullptr;
  if (rep != nullptr && rep->count == 0) {
    release(rep);
    rep = nullptr;
  }
  return CodeList(rep);
}

}  // namespace ftbb::core
