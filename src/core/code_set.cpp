#include "core/code_set.hpp"

#include <algorithm>
#include <cstring>

namespace ftbb::core {

namespace {

/// Codes per chunk at most: each chunk is one whole code and the records
/// that front-code against it.
constexpr std::size_t kChunk = CodeList::kRestart;
/// A merge passes no chunk below this size through whole, and leaves none
/// where a neighbour can fill it.
constexpr std::size_t kHalfChunk = kChunk / 2;

/// Sign of a <=> b, given n = lcp(a, b).
int order(PathView a, PathView b, std::size_t n) {
  if (n == a.depth()) return n == b.depth() ? 0 : -1;
  if (n == b.depth()) return 1;
  return a.word(n) < b.word(n) ? -1 : 1;
}

/// True when `a` is the sibling of `z` (z not the root).
bool is_sibling(PathView a, PathView z) {
  const std::size_t d = z.depth();
  return a.depth() == d && a.word(d - 1) == (z.word(d - 1) ^ 1u) &&
         std::memcmp(a.words(), z.words(), (d - 1) * sizeof(std::uint32_t)) == 0;
}

/// Codes of one search tree that leave a shared prefix branch there on the
/// same variable (checking each new code against its two neighbours in
/// order checks it against the whole table): `word` is another code's word
/// at n, where it and `code` part.
void check_var(std::uint32_t word, PathView code, std::size_t n) {
  FTBB_CHECK_MSG((word >> 1) == code.var(n),
                 "CodeSet: codes disagree on a node's branching variable "
                 "(codes must come from one search tree)");
}

/// The same for two whole codes, given n = lcp(a, b).
void check_branching(PathView a, PathView b, std::size_t n) {
  if (n < a.depth() && n < b.depth()) check_var(a.word(n), b, n);
}

/// PathView::encoded_size(), by CodeList::word_bytes().
std::size_t encoded_size(PathView c) {
  return support::varint_size(c.depth()) + CodeList::word_bytes(c.words(), c.depth());
}

/// Chunk `c`'s share of trie_nodes() - 1: its records' depth - lcp, the
/// head's taken against the previous chunk. Only the head is stored whole,
/// so the words after the record headers are exactly the sum.
std::size_t trie_words(const CodeList& codes, std::uint32_t lcp) {
  return codes.body_words() - 2 * codes.size() - lcp;
}

/// A CodeList read in order: each code and its common prefix with the one
/// before it, off the records.
class ListSource {
 public:
  explicit ListSource(const CodeList& list) : links_(list) {}
  bool next() {
    if (links_.done()) return false;
    const CodeList::Link l = links_.next();
    if (links_.index() > 1) {
      // Out of order when the new code is a proper prefix of the previous
      // one or branches below it.
      const bool below = l.add() == 0 ? l.lcp < code_.depth()
                                      : l.lcp < code_.depth() &&
                                            l.suffix[0] < code_.word(l.lcp);
      ordered_ = ordered_ && !below;
    }
    code_.apply(l);
    lcp_ = l.lcp;
    return true;
  }
  [[nodiscard]] PathView code() const { return code_.view(); }
  [[nodiscard]] std::size_t lcp() const { return lcp_; }
  [[nodiscard]] bool ordered() const { return ordered_; }
  /// Skips the codes that share at least `d` words with the one before,
  /// without decoding them, and returns how many. The next code read shares
  /// less, so the words it keeps are still those of the code decoded last.
  std::size_t skip_under(std::size_t d) {
    std::size_t n = 0;
    for (; !links_.done() && links_.next_lcp() >= d; ++n) links_.next();
    return n;
  }

 private:
  CodeList::Links links_;
  CodeList::Code code_;
  std::size_t lcp_ = 0;
  bool ordered_ = true;
};

/// A span of codes (PathViews or PathCodes) read in order.
template <typename Code>
class SpanSource {
 public:
  explicit SpanSource(std::span<const Code> codes) : codes_(codes) {}
  bool next() {
    if (i_ == codes_.size()) return false;
    lcp_ = 0;
    if (i_ > 0) {
      lcp_ = common_prefix(codes_[i_ - 1], codes_[i_]);
      if (order(codes_[i_], codes_[i_ - 1], lcp_) < 0) ordered_ = false;
    }
    ++i_;
    return true;
  }
  [[nodiscard]] PathView code() const { return codes_[i_ - 1]; }
  [[nodiscard]] std::size_t lcp() const { return lcp_; }
  [[nodiscard]] bool ordered() const { return ordered_; }
  /// Skips the codes that share at least `d` words with the one before.
  std::size_t skip_under(std::size_t d) {
    std::size_t n = 0;
    for (; i_ < codes_.size() && common_prefix(codes_[i_ - 1], codes_[i_]) >= d; ++n) ++i_;
    return n;
  }

 private:
  std::span<const Code> codes_;
  std::size_t i_ = 0;
  std::size_t lcp_ = 0;
  bool ordered_ = true;
};

}  // namespace

// ---------------------------------------------------------------------------
// Lookups
// ---------------------------------------------------------------------------

struct CodeSet::Probe {
  std::ptrdiff_t chunk = -1;  // -1: every stored code sorts after the query
  std::size_t depth = 0;      // depth of the last stored code <= the query
  std::size_t lcp = 0;        // its common prefix with the query
  [[nodiscard]] bool covers() const { return chunk >= 0 && lcp == depth; }
};

std::ptrdiff_t CodeSet::find_chunk(PathView code, std::size_t& head_lcp) const {
  const std::size_t n = chunks_.size();
  if (n == 0) return -1;
  // Bisection over the chunk heads, each compared from the prefix the code
  // shares with both bounds (sorted strings: a head between two bounds
  // shares at least the smaller of the bounds' prefixes with the code).
  std::size_t lo_lcp = 0;
  std::size_t hi_lcp = 0;
  const auto head_le = [&](std::size_t k, std::size_t from, std::size_t& lcp) {
    const PathView head = chunks_[k].codes.front();
    lcp = common_prefix(head, code, from);
    return order(head, code, lcp) <= 0;
  };
  // Lookups cluster: try the last chunk found, then its neighbour on the
  // side the code lies.
  std::size_t lo = 0;
  std::size_t hi = n;
  const std::size_t h = std::min<std::size_t>(hint_, n - 1);
  std::size_t lcp = 0;
  if (head_le(h, 0, lcp)) {
    lo = h + 1;
    lo_lcp = lcp;
    if (lo < n) {
      if (!head_le(lo, 0, lcp)) {
        head_lcp = lo_lcp;
        return static_cast<std::ptrdiff_t>(h);
      }
      lo_lcp = lcp;
      ++lo;
    }
  } else {
    hi = h;
    hi_lcp = lcp;
    if (h > 0) {
      if (head_le(h - 1, 0, lcp)) {
        hint_ = static_cast<std::uint32_t>(h - 1);
        head_lcp = lcp;
        return static_cast<std::ptrdiff_t>(h) - 1;
      }
      hi = h - 1;
      hi_lcp = lcp;
    }
  }
  // Invariant: heads before lo are <= code, heads from hi on are > code.
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (head_le(mid, std::min(lo_lcp, hi_lcp), lcp)) {
      lo = mid + 1;
      lo_lcp = lcp;
    } else {
      hi = mid;
      hi_lcp = lcp;
    }
  }
  if (lo > 0) hint_ = static_cast<std::uint32_t>(lo - 1);
  head_lcp = lo_lcp;
  return static_cast<std::ptrdiff_t>(lo) - 1;
}

CodeSet::Probe CodeSet::probe(PathView code) const {
  Probe p;
  std::size_t m = 0;
  p.chunk = find_chunk(code, m);
  if (p.chunk < 0) return p;
  // Walk the chunk's records keeping m = lcp(predecessor, code): a record
  // sharing less than m with the predecessor sorts after the code, one
  // sharing more sorts before it, and only a tie compares words.
  CodeList::Links links(chunks_[static_cast<std::size_t>(p.chunk)].codes);
  CodeList::Link l = links.next();
  std::size_t depth = l.depth;
  while (!links.done()) {
    l = links.next();
    if (l.lcp < m) break;
    if (l.lcp == m) {
      const std::size_t add = l.add();
      std::size_t j = 0;
      while (j < add && m + j < code.depth() && l.suffix[j] == code.word(m + j)) ++j;
      if (j < add && (m + j == code.depth() || l.suffix[j] > code.word(m + j))) break;
      m += j;
    }
    depth = l.depth;
  }
  p.depth = depth;
  p.lcp = m;
  return p;
}

bool CodeSet::covered(PathView code) const { return probe(code).covers(); }

std::optional<std::size_t> CodeSet::covering_prefix_len(PathView code) const {
  const Probe p = probe(code);
  if (!p.covers()) return std::nullopt;
  return p.depth;
}

std::optional<PathCode> CodeSet::covering_code(PathView code) const {
  const std::optional<std::size_t> len = covering_prefix_len(code);
  if (!len.has_value()) return std::nullopt;
  return PathCode(code.prefix(*len));
}

// ---------------------------------------------------------------------------
// Merging a sorted run of codes
// ---------------------------------------------------------------------------

/// One pass of a sorted run of codes over the table, from the chunk holding
/// the first code's predecessor to the chunk boundary after the last code.
/// It reads the old chunks of that range record by record, writes their
/// replacement (chunks no code lands in pass through whole), and splices it
/// in. Per code it does what a per-code insert does — the output's last
/// code is the only one that can cover the next code, and a sibling pair
/// can only form between it and the next table code — so the table and
/// every InsertResult equal those of per-code inserts. A single insert is
/// the merge of a one-code run.
///
/// Both sides are read as front-coded records. The merge keeps the exact
/// common prefix of the code being placed, x, with the table code read last
/// and with the output's last code. Sorted codes a < b < c have lcp(a, c) =
/// min(lcp(a, b), lcp(b, c)), so a record that shares more or less with its
/// predecessor than the predecessor shares with x is ordered against x by
/// its header alone, and so is the next code of the run against the table
/// code; only a tie compares words, from that prefix. A table code that
/// follows its table predecessor into the output keeps its stored prefix.
///
/// A chunk passed through whole, and the chunk after the range, keep their
/// stored prefix. A new code comes right before such a chunk only when the
/// chunk before it was used up by dropping codes under the new one, and a
/// first code not under the new code shares as much with it as with the
/// dropped code.
class CodeSet::Merge {
 public:
  /// A merge positioned at `x`, the run's first code: `first` is
  /// find_chunk(x) and `head_lcp` what that chunk's first code shares with
  /// x. place() then inserts x.
  Merge(CodeSet& set, std::ptrdiff_t first, std::size_t head_lcp, PathView x,
        InsertResult& res)
      : set_(set),
        chunks_(set.chunks_),
        res_(res),
        open_(open_builder()),
        out_(out_chunks()),
        a_(first < 0 ? 0 : static_cast<std::size_t>(first)),
        b_(a_),
        t_(buffers().table),
        back_(buffers().back),
        copy_(buffers().copy),
        x_(x) {
    out_.clear();
    if (b_ == chunks_.size()) return;  // an empty table
    read_head();
    if (first < 0) {  // every table code sorts after x
      p_tx_ = common_prefix(t_.view(), x);
      c_tx_ = 1;
      return;
    }
    p_tx_ = head_lcp;
    c_tx_ = head_lcp == x.depth() && head_lcp == t_.depth() ? 0 : -1;
    // The chunk before the range ends with the head's predecessor.
    if (a_ > 0) p_bx_ = std::min<std::size_t>(chunks_[a_].lcp, head_lcp);
  }

  /// place() and add() return this, or the depth of the output's last code
  /// when it covers the code.
  static constexpr std::size_t kNotCovered = ~std::size_t{0};

  /// Inserts `x`, which sorts after the code inserted before it and shares
  /// `lx` words with it.
  std::size_t add(PathView x, std::size_t lx) {
    // The output's last code sorts before both codes. The table code read
    // last keeps its order and prefix against x unless x leaves the
    // previous code before the table code does.
    x_ = x;
    p_bx_ = std::min(p_bx_, lx);
    if (c_tx_ < 0) {
      p_tx_ = std::min(p_tx_, lx);
    } else if (lx < p_tx_) {
      p_tx_ = lx;
      c_tx_ = -1;
    } else if (lx == p_tx_) {
      compare_t();
    }
    return place();
  }

  /// Inserts the code the merge is positioned at.
  std::size_t place() {
    const PathView x = x_;
    // Move every table code before x to the output.
    while (true) {
      if (!have_t_) {
        if (b_ == chunks_.size()) break;
        // The range's first chunk holds the first code's predecessor, and no
        // chunk after a table code at or past x lies before it.
        if (c_tx_ < 0 && b_ > a_ && b_ + 1 < chunks_.size() && fits_whole(b_)) {
          const PathView next = chunks_[b_ + 1].codes.front();
          const std::size_t l = common_prefix(next, x);
          if (order(next, x, l) <= 0) {
            pass_chunk(l);
            continue;
          }
        }
        load();
      }
      if (c_tx_ >= 0) break;
      push_t();
      if (have_t_) order_t();
    }
    // Already stored, or covered by the output's last code.
    if (have_t_ && c_tx_ == 0) {
      res_.nodes_walked += static_cast<std::uint32_t>(x.depth() + 1);
      return kNotCovered;
    }
    if (has_back()) {
      const std::size_t depth = back_depth();
      if (p_bx_ == depth) {
        res_.nodes_walked += static_cast<std::uint32_t>(depth + 1);
        return depth;
      }
      if (p_bx_ < x.depth()) check_var(back_word(p_bx_), x, p_bx_);
    }
    if (have_t_) check_branching(t_.view(), x, p_tx_);
    res_.newly_covered = true;
    res_.nodes_walked += static_cast<std::uint32_t>(x.depth() + 1);
    changed_ = true;
    // Completion subsumes the table codes below x: those that share all of
    // x with the code after it.
    const std::size_t x_words = CodeList::word_bytes(x.words(), x.depth());
    while (next_t() && p_tx_ == x.depth()) {
      const std::size_t tail = t_.depth() - x.depth();
      drop_t(support::varint_size(t_.depth()) + x_words +
             CodeList::word_bytes(t_.view().words() + x.depth(), tail));
    }
    // List contraction (Section 5.3.2): a left child's sibling is the next
    // table code, a right child's the output's last code. Both share with
    // the prefix z of x what they share with x, capped at z's depth, and
    // take as many bytes as it.
    std::size_t z = x.depth();
    std::size_t bytes = support::varint_size(z) + x_words;
    while (z != 0) {
      const std::uint32_t sibling = x.word(z - 1) ^ 1u;
      if ((sibling & 1u) != 0) {
        if (!next_t() || t_.depth() != z || p_tx_ != z - 1 || t_.word(z - 1) != sibling) break;
        drop_t(bytes);
      } else {
        if (!has_back() || back_depth() != z || p_bx_ != z - 1 || back_word(z - 1) != sibling) {
          break;
        }
        pop_back(bytes);
      }
      bytes -= support::varint_size(z) + CodeList::word_size(sibling);
      --z;
      bytes += support::varint_size(z);
      ++res_.merges;
    }
    push(x.prefix(z), has_back() ? std::min(p_bx_, z) : 0);
    p_bx_ = z;
    back_is_table_ = false;
    ++set_.count_;
    set_.body_bytes_ += bytes;
    return kNotCovered;
  }

  /// Finishes the range at a chunk boundary and splices it into the table.
  void finish() {
    if (!changed_) {  // the table stays as it was
      open_.clear();
      out_.clear();
      return;
    }
    // The run's codes may be gone: prefixes with x are bounds from here on.
    finishing_ = true;
    while (have_t_) push_t();
    // Refill a short last chunk from its right neighbour.
    while (open_.size() != 0 && open_.size() < kHalfChunk && b_ < chunks_.size() &&
           open_.size() + chunks_[b_].codes.size() <= kChunk) {
      load();
      while (have_t_) push_t();
    }
    if (open_.size() != 0) seal();
    balance_tail();
    std::size_t old_words = 0;
    for (std::size_t i = a_; i < b_; ++i) {
      old_words += trie_words(chunks_[i].codes, chunks_[i].lcp);
    }
    std::size_t new_words = 0;
    for (const Chunk& c : out_) new_words += trie_words(c.codes, c.lcp);
    set_.trie_words_ = set_.trie_words_ + new_words - old_words;
    // Replace chunks [a, b) with the output, shifting the tail at most once.
    const std::size_t common = std::min(out_.size(), b_ - a_);
    for (std::size_t i = 0; i < common; ++i) chunks_[a_ + i] = std::move(out_[i]);
    if (out_.size() > common) {
      chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(b_),
                     std::make_move_iterator(out_.begin() + static_cast<std::ptrdiff_t>(common)),
                     std::make_move_iterator(out_.end()));
    } else {
      chunks_.erase(chunks_.begin() + static_cast<std::ptrdiff_t>(a_ + common),
                    chunks_.begin() + static_cast<std::ptrdiff_t>(b_));
    }
    out_.clear();
    // The export memo is a copy of the old records: drop it with them
    // instead of pinning it until the next export.
    set_.exported_ = CodeList();
    set_.root_complete_ = set_.count_ == 1 && chunks_[0].codes.front().is_root();
  }

 private:
  /// The open output chunk's builder and the replacement chunks, kept per
  /// thread so their room is reused from merge to merge.
  static CodeList::Builder& open_builder() {
    thread_local CodeList::Builder builder;
    return builder;
  }
  static std::vector<Chunk>& out_chunks() {
    thread_local std::vector<Chunk> chunks;
    return chunks;
  }
  struct Buffers {
    CodeList::Code table;
    CodeList::Code back;
    CodeList::Code copy;
  };
  static Buffers& buffers() {
    thread_local Buffers b;
    return b;
  }

  /// Chunk k can move to the output as it is: big enough, and not landing
  /// after a short open chunk that it should refill.
  [[nodiscard]] bool fits_whole(std::size_t k) const {
    return chunks_[k].codes.size() >= kHalfChunk &&
           (open_.size() == 0 || open_.size() >= kHalfChunk);
  }

  /// Moves chunk b, which lies before x, to the output whole; `l` is what
  /// the next chunk's head, at or before x, shares with x.
  void pass_chunk(std::size_t l) {
    if (open_.size() != 0) seal();
    out_.push_back(chunks_[b_++]);
    back_valid_ = false;
    back_is_table_ = true;
    // The passed chunk's last code is the table code read last.
    p_bx_ = std::min<std::size_t>(chunks_[b_].lcp, l);
    p_tx_ = p_bx_;
    c_tx_ = -1;
  }

  /// Reads the first code of chunk b.
  void read_head() {
    const Chunk& c = chunks_[b_++];
    links_ = CodeList::Links(c.codes);
    t_.apply(links_.next());
    t_lcp_ = c.lcp;
    have_t_ = true;
  }

  /// Starts reading chunk b record by record.
  void load() {
    read_head();
    if (finishing_) {
      p_tx_ = std::min(p_tx_, t_lcp_);
    } else {
      order_t();
    }
  }

  /// Loads the next table code if the current chunk is used up.
  bool next_t() {
    if (!have_t_ && b_ < chunks_.size()) load();
    return have_t_;
  }

  void advance_t() {
    if (links_.done()) {
      have_t_ = false;
      return;
    }
    const CodeList::Link l = links_.next();
    t_.apply(l);
    t_lcp_ = l.lcp;
  }

  /// Orders the table code just read against x, from what it shares with
  /// the table code before it (t_lcp_) and what that one shares with x.
  void order_t() {
    if (c_tx_ >= 0) {  // after a code at or past x
      p_tx_ = std::min(p_tx_, t_lcp_);
      c_tx_ = 1;
    } else if (t_lcp_ < p_tx_) {  // leaves x's side of the predecessor
      p_tx_ = t_lcp_;
      c_tx_ = 1;
    } else if (t_lcp_ == p_tx_) {
      compare_t();
    }  // else it stays before x, sharing as much with it
  }

  /// Orders the table code against x by its words after p_tx_.
  void compare_t() {
    p_tx_ = common_prefix(t_.view(), x_, p_tx_);
    c_tx_ = order(t_.view(), x_, p_tx_);
  }

  /// Moves the current table code to the output.
  void push_t() {
    std::size_t lcp = t_lcp_;
    if (!back_is_table_ && !has_back()) {
      lcp = 0;
    } else if (!back_is_table_) {
      // The last code sorts before the table code, and both before x (or
      // both at or before it, once finishing): what they share with each
      // other is the smaller of what each shares with x, unless those tie.
      const std::size_t shared = std::min(p_bx_, p_tx_);
      lcp = !finishing_ && p_bx_ < p_tx_ ? shared : common_prefix(back(), t_.view(), shared);
    }
    push(t_.view(), lcp);
    back_is_table_ = true;
    p_bx_ = p_tx_;
    advance_t();
  }

  /// Drops the current table code (subsumed or contracted away), which
  /// takes `bytes` encoded; the next one sorts after x.
  void drop_t(std::size_t bytes) {
    --set_.count_;
    set_.body_bytes_ -= bytes;
    back_is_table_ = false;
    advance_t();
    if (have_t_) order_t();
  }

  /// The output so far ends with a code: one written here, or the last
  /// code of the chunk before the range.
  [[nodiscard]] bool has_back() const {
    return open_.size() != 0 || !out_.empty() || a_ > 0;
  }

  /// The output's last record.
  [[nodiscard]] CodeList::Link back_link() const {
    if (open_.size() != 0) return open_.back_link();
    if (!out_.empty()) return out_.back().codes.back_link();
    return chunks_[a_ - 1].codes.back_link();
  }
  [[nodiscard]] std::size_t back_depth() const { return back_link().depth; }

  /// Word i of the output's last code: off its record when the record
  /// holds it, else from the decoded code.
  std::uint32_t back_word(std::size_t i) {
    if (!back_valid_) {
      const CodeList::Link l = back_link();
      if (i >= l.lcp) return l.suffix[i - l.lcp];
    }
    return back().word(i);
  }

  PathView back() {
    if (!back_valid_) {
      if (open_.size() != 0) {
        open_.back_into(back_);
      } else if (!out_.empty()) {
        out_.back().codes.back_into(back_);
      } else {
        chunks_[a_ - 1].codes.back_into(back_);
      }
      back_valid_ = true;
    }
    return back_.view();
  }

  void push(PathView code, std::size_t lcp) {
    if (open_.size() == kChunk) seal();
    if (open_.size() == 0) open_lcp_ = static_cast<std::uint32_t>(lcp);
    open_.append(code, lcp);
    if (back_valid_) {
      back_.splice(lcp, code.words() + lcp, code.depth() - lcp);
    } else {
      back_.assign(code);
      back_valid_ = true;
    }
  }

  /// Removes the output's last code (a sibling contracted with the next),
  /// which takes `bytes` encoded.
  void pop_back(std::size_t bytes) {
    --set_.count_;
    set_.body_bytes_ -= bytes;
    if (open_.size() == 0) {
      // Reopen the chunk the code sits in: the output's last, or the one
      // before the range, which the range then takes in.
      if (!out_.empty()) {
        reopen(out_.back());
        out_.pop_back();
      } else {
        --a_;
        reopen(chunks_[a_]);
      }
    }
    // The code before it shares with x what the two share, at most.
    const std::size_t lcp = open_.size() == 1 ? open_lcp_ : open_.back_link().lcp;
    open_.pop_back();
    p_bx_ = std::min(p_bx_, lcp);
    back_valid_ = false;
    back_is_table_ = false;
  }

  void reopen(const Chunk& c) {
    open_lcp_ = c.lcp;
    open_.append_list(c.codes, 0);
  }

  void seal() { out_.push_back(Chunk{open_.take(), open_lcp_}); }

  /// Splits a short last output chunk's codes evenly with the one before.
  void balance_tail() {
    if (out_.size() < 2 || out_.back().codes.size() >= kHalfChunk) return;
    const Chunk left = std::move(out_[out_.size() - 2]);
    const Chunk right = std::move(out_.back());
    out_.resize(out_.size() - 2);
    const std::size_t total = left.codes.size() + right.codes.size();
    const std::size_t first = total <= kChunk ? total : total / 2;
    std::size_t i = 0;
    open_lcp_ = left.lcp;
    for (const Chunk* c : {&left, &right}) {
      bool head = true;
      for (CodeList::Links links(c->codes); !links.done();) {
        const CodeList::Link l = links.next();
        copy_.apply(l);
        const std::uint32_t lcp = head ? c->lcp : l.lcp;
        head = false;
        if (i++ == first) {
          seal();
          open_lcp_ = lcp;
        }
        open_.append(copy_.view(), lcp);
      }
    }
    seal();
  }

  CodeSet& set_;
  std::vector<Chunk>& chunks_;
  InsertResult& res_;
  CodeList::Builder& open_;
  std::vector<Chunk>& out_;
  std::size_t a_;  // first chunk of the range
  std::size_t b_;  // first chunk not read yet
  // The table code read last: its words, its common prefix with the table
  // code before it, and whether it still waits to be placed.
  CodeList::Links links_;
  CodeList::Code& t_;
  std::size_t t_lcp_ = 0;
  bool have_t_ = false;
  // The output: the open chunk's prefix against the previous chunk, and
  // the last code, decoded on demand.
  std::uint32_t open_lcp_ = 0;
  CodeList::Code& back_;
  bool back_valid_ = false;
  CodeList::Code& copy_;  // a chunk's codes, decoded to be rewritten
  /// The output's last code is the table code before the next one to read,
  /// so their stored common prefix still holds.
  bool back_is_table_ = true;
  PathView x_;  // the code being placed
  // Exact common prefixes with x of the table code read last and of the
  // output's last code, and the sign of (table code <=> x).
  std::size_t p_tx_ = 0;
  int c_tx_ = -1;
  std::size_t p_bx_ = 0;
  bool finishing_ = false;
  bool changed_ = false;
};

template <typename Source>
CodeSet::InsertResult CodeSet::insert_sorted(Source& source) {
  InsertResult res;
  if (!source.next()) return res;
  bool stepped_back = false;
  {
    std::size_t head_lcp = 0;
    const std::ptrdiff_t first = find_chunk(source.code(), head_lcp);
    Merge merge(*this, first, head_lcp, source.code(), res);
    std::size_t covering = merge.place();
    while (true) {
      if (covering != Merge::kNotCovered) {
        // The codes after it under the output's last code are covered by
        // it too: count them without reading them.
        res.nodes_walked +=
            static_cast<std::uint32_t>((covering + 1) * source.skip_under(covering));
      }
      if (!source.next()) break;
      if (!source.ordered()) {
        stepped_back = true;
        break;
      }
      covering = merge.add(source.code(), source.lcp());
    }
    merge.finish();
  }
  if (stepped_back) {
    // The rest of a list that steps back goes code by code.
    do {
      const InsertResult r = insert(source.code());
      res.newly_covered = res.newly_covered || r.newly_covered;
      res.nodes_walked += r.nodes_walked;
      res.merges += r.merges;
    } while (source.next());
  }
  return res;
}

CodeSet::InsertResult CodeSet::insert(PathView code) {
  SpanSource<PathView> source{std::span<const PathView>(&code, 1)};
  return insert_sorted(source);
}

CodeSet::InsertResult CodeSet::insert_all(const CodeList& codes) {
  ListSource source(codes);
  return insert_sorted(source);
}

CodeSet::InsertResult CodeSet::insert_all(std::span<const PathCode> codes) {
  SpanSource<PathCode> source{codes};
  return insert_sorted(source);
}

// ---------------------------------------------------------------------------
// Export, complement, diagnostics
// ---------------------------------------------------------------------------

CodeList CodeSet::export_list() const {
  if (exported_.empty() && !chunks_.empty()) {
    // The export is the chunks' records copied back to back: each head takes
    // its chunk's stored prefix, and each kRestart-th record of the export
    // is stored whole. Size it exactly first, so it is one allocation.
    std::size_t words = 0;
    std::size_t at = 0;
    for (const Chunk& c : chunks_) {
      words += CodeList::appended_words(c.codes, at, c.lcp);
      at += c.codes.size();
    }
    CodeList::Builder out;
    out.reserve(count_, words);
    for (const Chunk& c : chunks_) out.append_list(c.codes, c.lcp);
    exported_ = out.finish();
  }
  return exported_;
}

std::vector<PathCode> CodeSet::export_codes() const {
  return export_list().to_vector();
}

std::vector<PathCode> CodeSet::complement() const {
  std::vector<PathCode> regions;
  if (chunks_.empty()) regions.emplace_back();  // nothing known: the root
  // In DFS order, leaving code c at depth d toward a code that shares
  // less passes c's right sibling region at d when c went left there, and
  // entering a code passes the left sibling where it goes right.
  CodeList::Code code;
  const auto sibling_at = [&](std::size_t d) {
    PathCode region(code.view().prefix(d));
    region.push_word(code.word(d) ^ 1u);
    regions.push_back(std::move(region));
  };
  const auto leave = [&](std::size_t shared) {
    for (std::size_t d = code.depth(); d-- > shared;) {
      if ((code.word(d) & 1u) == 0) sibling_at(d);
    }
  };
  bool first = true;
  for (const Chunk& c : chunks_) {
    CodeList::Links links(c.codes);
    bool head = true;
    while (!links.done()) {
      const CodeList::Link l = links.next();
      const std::size_t lcp = head ? c.lcp : l.lcp;
      head = false;
      // Codes of a table differ below their shared prefix, where the
      // earlier one goes left and the later right: neither side is open.
      const std::size_t from = first ? 0 : lcp + 1;
      if (!first) leave(lcp + 1);
      first = false;
      code.splice(lcp, l.suffix + (lcp - l.lcp), l.depth - lcp);
      for (std::size_t d = from; d < code.depth(); ++d) {
        if ((code.word(d) & 1u) != 0) sibling_at(d);
      }
    }
  }
  if (!first) leave(0);
  return regions;
}

std::size_t CodeSet::allocated_bytes() const {
  std::size_t bytes = chunks_.capacity() * sizeof(Chunk);
  for (const Chunk& c : chunks_) bytes += c.codes.allocated_bytes();
  return bytes;
}

void CodeSet::clear() {
  chunks_.clear();
  count_ = 0;
  body_bytes_ = 0;
  trie_words_ = 0;
  root_complete_ = false;
  hint_ = 0;
  // A cleared table (worker restart) should not pin the previous
  // incarnation's contracted list.
  exported_ = CodeList();
}

void CodeSet::check_invariants() const {
  std::size_t count = 0;
  std::size_t bytes = 0;
  std::size_t words = 0;
  CodeList::Code prev;
  CodeList::Code code;
  for (const Chunk& c : chunks_) {
    FTBB_CHECK_MSG(!c.codes.empty() && c.codes.size() <= kChunk,
                   "CodeSet: chunk size out of range");
    CodeList::Decoder dec(c.codes);
    bool head = true;
    while (!dec.done()) {
      const CodeList::Link l = dec.next();
      code.assign(dec.code());
      const std::size_t lcp = common_prefix(prev.view(), code.view());
      FTBB_CHECK_MSG(lcp == (head ? c.lcp : l.lcp), "CodeSet: stale common prefix");
      head = false;
      if (count > 0) {
        FTBB_CHECK_MSG(order(prev.view(), code.view(), lcp) < 0,
                       "CodeSet: codes out of order");
        FTBB_CHECK_MSG(lcp < prev.depth(), "CodeSet: a code covers the next");
        FTBB_CHECK_MSG(!is_sibling(prev.view(), code.view()),
                       "CodeSet: uncontracted sibling pair");
        check_branching(prev.view(), code.view(), lcp);
      }
      ++count;
      bytes += encoded_size(code.view());
      words += code.depth() - lcp;
      std::swap(prev, code);
    }
  }
  FTBB_CHECK_MSG(count == count_, "CodeSet: stale code_count");
  FTBB_CHECK_MSG(bytes == body_bytes_, "CodeSet: stale byte accounting");
  FTBB_CHECK_MSG(words == trie_words_, "CodeSet: stale trie node count");
  FTBB_CHECK_MSG(root_complete_ == (count_ == 1 && prev.depth() == 0),
                 "CodeSet: stale root flag");
}

std::string CodeSet::to_string() const {
  std::string s = "{";
  bool first = true;
  for (const PathView c : export_list()) {
    if (!first) s += ", ";
    first = false;
    s += PathCode(c).to_string();
  }
  s += "}";
  return s;
}

}  // namespace ftbb::core
