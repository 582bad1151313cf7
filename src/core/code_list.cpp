#include "core/code_list.hpp"

#include <algorithm>
#include <cstring>
#include <new>


namespace ftbb::core {

namespace {

/// One exactly sized allocation for a sequence of codes or views.
template <typename Codes>
CodeList build(const Codes& codes) {
  std::size_t words = 0;
  std::size_t i = 0;
  PathView prev;
  for (const PathView c : codes) {
    words += CodeList::record_words(i++, c.depth(), common_prefix(prev, c));
    prev = c;
  }
  CodeList::Builder b;
  b.reserve(codes.size(), words);
  prev = PathView();
  for (const PathView c : codes) {
    b.append(c, common_prefix(prev, c));
    prev = c;
  }
  return b.finish();
}

std::size_t restarts_for(std::size_t codes) {
  return (codes + CodeList::kRestart - 1) / CodeList::kRestart;
}

}  // namespace

void CodeList::Code::grow(std::size_t n) {
  const std::size_t cap = std::max(n, 2 * cap_);
  auto grown = std::make_unique_for_overwrite<std::uint32_t[]>(cap);
  if (size_ != 0) std::memcpy(grown.get(), w_.get(), size_ * sizeof(std::uint32_t));
  w_ = std::move(grown);
  cap_ = cap;
}

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

PathCode CodeList::operator[](std::size_t i) const {
  FTBB_CHECK(i < size());
  Code code;
  decode(*rep_, i, code);
  return PathCode(code.view());
}

void CodeList::decode(const Rep& rep, std::size_t i, Code& out) {
  const std::uint32_t* pos = rep.body() + rep.restarts()[i / kRestart];
  out.splice(0, pos + 2, pos[0]);
  pos += 2 + pos[0];
  for (std::size_t k = i - i % kRestart + 1; k <= i; ++k) {
    out.splice(pos[1], pos + 2, pos[0] - pos[1]);
    pos += 2 + (pos[0] - pos[1]);
  }
}

std::size_t CodeList::allocated_bytes() const {
  if (rep_ == nullptr) return 0;
  return sizeof(Rep) + (rep_->restart_cap + rep_->cap) * sizeof(std::uint32_t);
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
  // Front coding is canonical: equal code sequences have equal records.
  const CodeList::Rep& x = *a.rep_;
  const CodeList::Rep& y = *b.rep_;
  return x.size == y.size &&
         std::memcmp(x.body(), y.body(), x.size * sizeof(std::uint32_t)) == 0;
}

CodeList::Rep* CodeList::allocate(std::size_t restart_cap, std::size_t cap) {
  void* block = ::operator new(sizeof(Rep) +
                               (restart_cap + cap) * sizeof(std::uint32_t));
  Rep* rep = ::new (block) Rep;
  rep->restart_cap = static_cast<std::uint32_t>(restart_cap);
  rep->cap = static_cast<std::uint32_t>(cap);
  return rep;
}

CodeList::Rep* CodeList::copy(const Rep& rep, std::size_t restart_cap, std::size_t cap) {
  Rep* out = allocate(restart_cap, cap);
  out->count = rep.count;
  out->size = rep.size;
  out->max_depth = rep.max_depth;
  out->last = rep.last;
  out->chain_bytes = rep.chain_bytes;
  std::memcpy(out->restarts(), rep.restarts(),
              restarts_for(rep.count) * sizeof(std::uint32_t));
  std::memcpy(out->body(), rep.body(), rep.size * sizeof(std::uint32_t));
  return out;
}

CodeList::Rep* CodeList::reallocate(Rep* rep, std::size_t restart_cap, std::size_t cap) {
  if (rep == nullptr) return allocate(restart_cap, cap);
  Rep* grown = copy(*rep, restart_cap, cap);
  release(rep);
  return grown;
}

void CodeList::Builder::resize_rep(std::size_t restart_cap, std::size_t cap) {
  rep_ = reallocate(rep_, restart_cap, cap);
}

void CodeList::Builder::grow(std::size_t codes, std::size_t words) {
  if (codes == 0 && words == 0) return;  // an empty list needs no block
  const std::size_t have_codes = size();
  const std::size_t have_words = body_words();
  FTBB_CHECK_MSG(codes <= kMaxWords - have_codes && words <= kMaxWords - have_words,
                 "CodeList: too many codes or record words");
  const std::size_t need_restarts = restarts_for(have_codes + codes);
  const std::size_t need_words = have_words + words;
  if (rep_ != nullptr && need_restarts <= rep_->restart_cap &&
      need_words <= rep_->cap) {
    return;
  }
  // Geometric growth, so decoders that cannot pre-size stay amortized O(1).
  std::size_t restart_cap = need_restarts;
  std::size_t cap = need_words;
  if (rep_ != nullptr) {
    restart_cap = std::max<std::size_t>(
        restart_cap, std::min<std::size_t>(2 * rep_->restart_cap, kMaxWords));
    cap = std::max<std::size_t>(cap, std::min<std::size_t>(2 * rep_->cap, kMaxWords));
  }
  resize_rep(restart_cap, cap);
}

std::size_t CodeList::appended_words(const CodeList& list, std::size_t at,
                                     std::size_t lcp) {
  std::size_t words = list.body_words();
  // With the restart slots aligned, every record keeps its size.
  if (list.empty() || at % kRestart == 0) return words;
  words -= lcp;  // the first record, whole in `list`, stores only its suffix
  // Records slot, kRestart, kRestart + slot, ... change form: those on the
  // appended list's restart slots become whole, the list's own restarts
  // keep only their suffix.
  const std::size_t slot = kRestart - at % kRestart;
  Links links(list);
  for (std::size_t k = slot; k < list.size(); k += k % kRestart == 0 ? slot : kRestart - slot) {
    while (links.index() < k) links.next();
    const Link l = links.next();
    words = k % kRestart == 0 ? words - l.lcp : words + l.lcp;
  }
  return words;
}

void CodeList::Builder::append_list(const CodeList& list, std::size_t lcp) {
  const std::size_t n = list.size();
  if (n == 0) return;
  const std::size_t at = size();
  const std::size_t prev_depth = back_depth();
  if (at == 0) lcp = 0;  // the first code links to the chain base
  const Rep& s = *list.rep_;
  const std::uint32_t* in = s.body();
  FTBB_CHECK(lcp <= in[0] && lcp <= prev_depth);
  // The records take at most their own words and a whole code for each of
  // this list's restart slots they land on: only a tighter room (the last
  // list of an exactly sized one) needs the exact count.
  const std::size_t slots = (at + n - 1) / kRestart + 1 - (at + kRestart - 1) / kRestart;
  if (rep_ == nullptr || rep_->cap - rep_->size < s.size + slots * s.max_depth ||
      rep_->count + n > std::size_t{rep_->restart_cap} * kRestart) {
    reserve(n, appended_words(list, at, lcp));
  }
  Rep& r = *rep_;
  if (at != 0) r.chain_bytes += link_bytes(prev_depth - lcp, in[0] - lcp, in + 2 + lcp);
  r.chain_bytes += s.chain_bytes;
  r.max_depth = std::max(r.max_depth, s.max_depth);
  std::uint32_t* const body = r.body();
  std::uint32_t* out = body + r.size;
  const auto offset = [&](const std::uint32_t* p) {
    return static_cast<std::uint32_t>(p - body);
  };
  // Records that keep their form are copied in runs, one memcpy each.
  const std::uint32_t* run = nullptr;
  std::uint32_t* run_out = nullptr;
  const auto flush = [&](const std::uint32_t* end) {
    if (run == nullptr) return;
    const std::size_t w = static_cast<std::size_t>(end - run);
    std::memcpy(run_out, run, w * sizeof(std::uint32_t));
    out = run_out + w;
    run = nullptr;
  };
  // The first record, the list's restarts and the records on this list's
  // restart slots are rewritten; the records after the last of those are
  // one run, copied without reading them.
  std::size_t last_rewritten = (n - 1) / kRestart * kRestart;
  if (slots != 0) {
    last_rewritten = std::max(last_rewritten, (at + n - 1) / kRestart * kRestart - at);
  }
  const std::uint32_t* recs[kRestart] = {};  // the list's records since its last restart
  for (std::size_t k = 0; k <= last_rewritten; ++k) {
    const std::uint32_t* rec = in;
    const std::size_t depth = rec[0];
    const bool was_whole = k % kRestart == 0;
    const bool whole = (at + k) % kRestart == 0;
    recs[k % kRestart] = rec;
    in += 2 + (was_whole ? depth : depth - rec[1]);
    if (k != 0 && was_whole == whole) {
      if (run == nullptr) {
        run = rec;
        run_out = out;
      }
      if (whole) r.restarts()[(at + k) / kRestart] = offset(run_out + (rec - run));
      continue;
    }
    flush(rec);
    const std::size_t rec_lcp = k == 0 ? lcp : rec[1];
    r.last = offset(out);
    if (whole) r.restarts()[(at + k) / kRestart] = r.last;
    out[0] = static_cast<std::uint32_t>(depth);
    out[1] = static_cast<std::uint32_t>(rec_lcp);
    std::uint32_t* w = out + 2;
    if (was_whole) {
      const std::size_t from = whole ? 0 : rec_lcp;
      copy_words(w, rec + 2 + from, depth - from);
      out = w + depth - from;
      continue;
    }
    // A suffix record on a restart slot: its prefix comes from the records
    // before it, back to the list's last whole one.
    std::size_t need = rec_lcp;
    copy_words(w + need, rec + 2, depth - need);
    for (std::size_t q = k; need != 0;) {
      const std::uint32_t* p = recs[--q % kRestart];
      const std::size_t from = q % kRestart == 0 ? 0 : p[1];
      if (from < need) {
        copy_words(w + from, p + 2, need - from);
        need = from;
      }
    }
    out = w + depth;
  }
  if (last_rewritten + 1 < n && run == nullptr) {
    run = in;
    run_out = out;
  }
  if (run != nullptr) r.last = offset(run_out + (s.body() + s.last - run));  // the run ends the list
  flush(s.body() + s.size);
  FTBB_CHECK(offset(out) <= r.cap);
  r.size = offset(out);
  r.count += static_cast<std::uint32_t>(n);
}

void CodeList::Builder::pop_back() {
  Rep& r = *rep_;
  FTBB_CHECK(r.count != 0);
  const std::uint32_t* body = r.body();
  const std::uint32_t popped = r.last;
  --r.count;
  r.size = popped;
  if (r.count == 0) {
    r.chain_bytes = 0;
    r.last = 0;
    return;
  }
  // Find the new last record by walking from the whole-code record at or
  // before it, then take the popped record's link out of the chain bytes.
  const std::size_t index = r.count - 1;
  std::uint32_t pos = r.restarts()[index / kRestart];
  for (std::size_t k = index - index % kRestart; k < index; ++k) {
    pos += static_cast<std::uint32_t>(record_words(k, body[pos], body[pos + 1]));
  }
  r.last = pos;
  const std::uint32_t depth = body[popped];
  const std::uint32_t lcp = body[popped + 1];
  const std::uint32_t* suffix = body + popped + 2 + (r.count % kRestart == 0 ? lcp : 0);
  r.chain_bytes -= link_bytes(body[pos] - lcp, depth - lcp, suffix);
}

CodeList CodeList::Builder::take() {
  if (size() == 0) return CodeList();
  Rep* sealed = copy(*rep_, restarts_for(rep_->count), rep_->size);
  clear();
  return CodeList(sealed);
}

void CodeList::Builder::clear() {
  if (rep_ == nullptr) return;
  rep_->count = 0;
  rep_->size = 0;
  rep_->max_depth = 0;
  rep_->last = 0;
  rep_->chain_bytes = 0;
}

CodeList CodeList::Builder::finish() {
  if (rep_ == nullptr || rep_->count == 0) {
    release(rep_);
    rep_ = nullptr;
    return CodeList();
  }
  // Sealed lists live on in tables, memos and in-flight messages: trim a
  // geometric or estimated reservation to what the records use.
  const std::size_t restarts = restarts_for(rep_->count);
  const std::size_t slack = rep_->cap - rep_->size + (rep_->restart_cap - restarts);
  if (slack > rep_->size / 16 + 8) resize_rep(restarts, rep_->size);
  Rep* rep = rep_;
  rep_ = nullptr;
  return CodeList(rep);
}

}  // namespace ftbb::core
