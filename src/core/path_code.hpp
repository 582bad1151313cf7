// Tree-path encoding of B&B subproblems (paper Section 5.3.1, Figure 1).
//
// Every subproblem generated by branch-and-bound is a node of the (dynamic)
// search tree, and is uniquely identified by the sequence of decisions taken
// from the root: pairs <x_i, value> where x_i is the condition variable the
// parent branched on and value selects the left (0) or right (1) branch.
// The variable must be part of the code because different subtrees may
// branch on different variables at the same depth.
//
// Codes are *self-contained*: together with the initial problem data, a code
// suffices to reconstruct its subproblem on any processor (the property the
// fault-tolerance mechanism relies on to re-create lost work from completion
// information alone).
//
// Representation: each decision is one packed word `(var << 1) | bit` — the
// exact value the wire encoding has always shipped per step, so numeric word
// order IS the historical lexicographic (var, bit) order and encode() is a
// varint per word. The first kInlineWords decisions live inline in the
// object (small-buffer optimization: typical search depths fit, so
// child()/parent()/sibling() on the expansion hot path allocate nothing);
// deeper codes spill to a geometrically grown heap block. Packing var into
// 31 bits caps variable indices at kMaxVar = 2^31-1 (decode rejects larger
// as corrupt; no workload comes within orders of magnitude of it).
#pragma once

#include <compare>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "support/bytes.hpp"
#include "support/check.hpp"

namespace ftbb::core {

/// One branching decision: condition variable index + branch taken.
struct Branch {
  std::uint32_t var = 0;
  std::uint8_t bit = 0;  // 0 = left subtree, 1 = right subtree

  friend bool operator==(const Branch&, const Branch&) = default;
  friend auto operator<=>(const Branch&, const Branch&) = default;
};

/// Non-owning view of a code: a span of packed step words. The cheap
/// currency for read-only code traversal — CodeSet lookups, pool covered
/// sweeps and prefix tests take views so callers never materialize a
/// temporary PathCode just to ask a question. A PathCode converts
/// implicitly; a view into one is valid as long as that code is neither
/// destroyed nor mutated.
class PathView {
 public:
  constexpr PathView() = default;
  constexpr PathView(const std::uint32_t* words, std::size_t n)
      : words_(words), size_(n) {}

  [[nodiscard]] constexpr bool is_root() const { return size_ == 0; }
  [[nodiscard]] constexpr std::size_t depth() const { return size_; }
  [[nodiscard]] constexpr const std::uint32_t* words() const { return words_; }
  [[nodiscard]] constexpr std::uint32_t word(std::size_t i) const {
    return words_[i];
  }
  [[nodiscard]] constexpr std::uint32_t var(std::size_t i) const {
    return words_[i] >> 1;
  }
  [[nodiscard]] constexpr std::uint8_t bit(std::size_t i) const {
    return static_cast<std::uint8_t>(words_[i] & 1u);
  }
  [[nodiscard]] Branch step(std::size_t i) const {
    return Branch{var(i), bit(i)};
  }

  /// View of the first `n` decisions (n <= depth()); zero-copy.
  [[nodiscard]] PathView prefix(std::size_t n) const {
    FTBB_CHECK(n <= size_);
    return PathView(words_, n);
  }

  /// True when `this` is an ancestor of `other` or equal to it, i.e. the
  /// subproblem `other` lies in the subtree rooted at `this`. Completion of
  /// an ancestor implies completion of all its descendants (Section 5.3.2).
  [[nodiscard]] bool contains(PathView other) const {
    return size_ <= other.size_ &&
           std::memcmp(words_, other.words_, size_ * sizeof(std::uint32_t)) == 0;
  }

  /// Strict ancestor test.
  [[nodiscard]] bool is_ancestor_of(PathView other) const {
    return size_ < other.size_ && contains(other);
  }

  /// FNV-1a style hash over the step words, then the depth: O(depth), the
  /// value the seed implementation computed.
  [[nodiscard]] std::size_t hash() const {
    constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < size_; ++i) h = (h ^ words_[i]) * kFnvPrime;
    return static_cast<std::size_t>((h ^ size_) * kFnvPrime);
  }

  /// Wire encoding (see PathCode::encode) and its exact byte count.
  void encode(support::ByteWriter& w) const;
  [[nodiscard]] std::size_t encoded_size() const;

  friend bool operator==(PathView a, PathView b) {
    return a.size_ == b.size_ &&
           std::memcmp(a.words_, b.words_, a.size_ * sizeof(std::uint32_t)) == 0;
  }

  /// Lexicographic over (var, bit) pairs, root first — identical verdicts to
  /// the historical vector<Branch> comparison, because packed words compare
  /// like their (var, bit) pairs.
  friend std::strong_ordering operator<=>(PathView a, PathView b) {
    const std::size_t n = a.size_ < b.size_ ? a.size_ : b.size_;
    for (std::size_t i = 0; i < n; ++i) {
      if (a.words_[i] != b.words_[i]) return a.words_[i] <=> b.words_[i];
    }
    return a.size_ <=> b.size_;
  }

 private:
  const std::uint32_t* words_ = nullptr;
  std::size_t size_ = 0;
};

/// Decisions `a` and `b` share from the root, given that they share at least
/// `from`. Compares two words at a time: codes of one table share long
/// prefixes.
[[nodiscard]] inline std::size_t common_prefix(PathView a, PathView b,
                                               std::size_t from = 0) {
  const std::size_t cap = a.depth() < b.depth() ? a.depth() : b.depth();
  std::size_t n = from < cap ? from : cap;
  for (; n + 2 <= cap; n += 2) {
    std::uint64_t x;
    std::uint64_t y;
    std::memcpy(&x, a.words() + n, sizeof(x));
    std::memcpy(&y, b.words() + n, sizeof(y));
    if (x != y) break;
  }
  while (n < cap && a.word(n) == b.word(n)) ++n;
  return n;
}

/// Immutable-ish sequence of branching decisions from the root.
///
/// The empty code denotes the root problem. Codes order lexicographically
/// (root first), which gives deterministic iteration anywhere a set of codes
/// is exported or reported.
class PathCode {
 public:
  /// Decisions stored inline before spilling to the heap (136-byte object).
  /// Codes up to depth 32 — child() in expand, code copies during pool
  /// pushes — never touch the allocator; deeper codes spill. Measured
  /// break-even: the extra memcpy width costs ~2ns per copy while a spilled
  /// derivation costs ~40ns of malloc/free. 32 words do not cover every
  /// standard workload: bench::large_problem_dense() (the Table-1 tree) has
  /// mean node depth 32.1, 46% of its nodes deeper than 32 and maximum depth
  /// 78, so the completion table and its report and gossip payloads keep
  /// their codes front-coded in CodeLists (each code's words after its
  /// common prefix with the code before it, in one shared allocation)
  /// rather than as PathCodes.
  static constexpr std::uint32_t kInlineWords = 32;
  /// Packed-word representation caps variable indices at 31 bits.
  static constexpr std::uint32_t kMaxVar = 0x7fffffffu;

  PathCode() : rep_{} {}  // explicit init so `const PathCode` default-constructs

  explicit PathCode(const std::vector<Branch>& steps) {
    reserve(steps.size());
    for (const Branch& b : steps) push_step(b.var, b.bit != 0);
  }

  explicit PathCode(PathView view) : PathCode(Uninit{}, view.depth()) {
    std::uint32_t* w = mutable_words();
    for (std::size_t i = 0; i < view.depth(); ++i) w[i] = view.word(i);
  }

  PathCode(const PathCode& other) : size_(other.size_) {
    if (size_ > kInlineWords) {
      cap_ = size_;
      rep_.heap = new std::uint32_t[cap_];
    }
    copy_words(*this, other, size_);
  }

  PathCode(PathCode&& other) noexcept : size_(other.size_), cap_(other.cap_) {
    if (other.is_heap()) {
      rep_.heap = other.rep_.heap;
      other.reset_to_root();
    } else {
      std::memcpy(rep_.inline_w, other.rep_.inline_w,
                  size_ * sizeof(std::uint32_t));
    }
  }

  PathCode& operator=(const PathCode& other) {
    if (this == &other) return *this;
    reserve(other.size_);  // reuses an existing heap block when it fits
    copy_words(*this, other, other.size_);
    size_ = other.size_;
    return *this;
  }

  PathCode& operator=(PathCode&& other) noexcept {
    if (this == &other) return *this;
    if (other.is_heap()) {
      if (is_heap()) delete[] rep_.heap;
      rep_.heap = other.rep_.heap;
      cap_ = other.cap_;
      size_ = other.size_;
      other.reset_to_root();
    } else {
      // Inline source: a short memcpy, keeping our (possibly heap) capacity.
      std::memcpy(mutable_words(), other.rep_.inline_w,
                  other.size_ * sizeof(std::uint32_t));
      size_ = other.size_;
    }
    return *this;
  }

  ~PathCode() {
    if (is_heap()) delete[] rep_.heap;
  }

  /// The root problem: the empty decision sequence "()".
  static PathCode root() { return PathCode{}; }

  [[nodiscard]] bool is_root() const { return size_ == 0; }
  [[nodiscard]] std::size_t depth() const { return size_; }
  [[nodiscard]] Branch step(std::size_t i) const {
    const std::uint32_t w = words()[i];
    return Branch{w >> 1, static_cast<std::uint8_t>(w & 1u)};
  }
  [[nodiscard]] Branch last() const {
    FTBB_CHECK_MSG(size_ != 0, "root code has no last step");
    return step(size_ - 1);
  }

  /// Packed step word `(var << 1) | bit` — the wire and comparison unit.
  [[nodiscard]] std::uint32_t word(std::size_t i) const { return words()[i]; }
  [[nodiscard]] std::uint32_t var(std::size_t i) const { return words()[i] >> 1; }
  [[nodiscard]] std::uint8_t bit(std::size_t i) const {
    return static_cast<std::uint8_t>(words()[i] & 1u);
  }

  [[nodiscard]] PathView view() const { return PathView(words(), size_); }
  operator PathView() const { return view(); }  // NOLINT(google-explicit-constructor)

  /// Child code reached by branching on `var` toward `bit`.
  [[nodiscard]] PathCode child(std::uint32_t var, bool bit) const {
    FTBB_CHECK_MSG(var <= kMaxVar, "PathCode: variable index exceeds 31 bits");
    PathCode out(Uninit{}, size_ + std::size_t{1});
    copy_words(out, *this, size_);
    out.mutable_words()[size_] = (var << 1) | (bit ? 1u : 0u);
    return out;
  }

  /// Code of the parent problem; the root has no parent.
  [[nodiscard]] PathCode parent() const {
    FTBB_CHECK_MSG(size_ != 0, "root code has no parent");
    PathCode out(Uninit{}, size_ - std::size_t{1});
    copy_words(out, *this, size_ - 1);
    return out;
  }

  /// Code of the sibling problem (same parent, other branch).
  [[nodiscard]] PathCode sibling() const {
    FTBB_CHECK_MSG(size_ != 0, "root code has no sibling");
    PathCode out(Uninit{}, std::size_t{size_});
    copy_words(out, *this, size_);
    out.mutable_words()[size_ - 1] ^= 1u;
    return out;
  }

  /// Prefix of the first `n` decisions (n <= depth()).
  [[nodiscard]] PathCode prefix(std::size_t n) const {
    FTBB_CHECK(n <= size_);
    return PathCode(PathView(words(), n));
  }

  // --- in-place editing (scratch-path enumeration, wire decode) ---

  /// Appends one decision; amortized O(1), allocation-free at inline depths.
  void push_step(std::uint32_t var, bool bit) {
    FTBB_CHECK_MSG(var <= kMaxVar, "PathCode: variable index exceeds 31 bits");
    push_word((var << 1) | (bit ? 1u : 0u));
  }

  /// Appends one pre-packed, pre-validated step word (wire decode path).
  void push_word(std::uint32_t packed) {
    if (size_ == cap_) grow(std::size_t{cap_} * 2);
    mutable_words()[size_++] = packed;
  }

  /// Removes the last decision (inverse of push_step). Capacity is retained.
  void pop_step() {
    FTBB_CHECK_MSG(size_ != 0, "root code has no step to pop");
    --size_;
  }

  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }

  [[nodiscard]] bool contains(const PathCode& other) const {
    return view().contains(other.view());
  }

  [[nodiscard]] bool is_ancestor_of(const PathCode& other) const {
    return view().is_ancestor_of(other.view());
  }

  /// Decoded depths beyond this are rejected as corrupt (no real search
  /// tree of ours branches a million levels deep).
  static constexpr std::uint64_t kMaxDepth = 1u << 20;

  /// Wire encoding: varint step count, then per step varint (var<<1 | bit) —
  /// exactly the packed words. Variable indices are small in practice, so
  /// codes cost ~1 byte per level — this is the unit in which work-report
  /// compression pays off.
  void encode(support::ByteWriter& w) const { view().encode(w); }
  /// Decoding a tolerant reader surfaces malformed input through r.ok()
  /// (returning the root code); a trusted reader aborts, as before.
  static PathCode decode(support::ByteReader& r);

  /// Exact number of bytes encode() will produce.
  [[nodiscard]] std::size_t encoded_size() const { return view().encoded_size(); }

  /// Paper notation, e.g. "(<x1,0>,<x2,1>)"; "()" for the root.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const PathCode& a, const PathCode& b) {
    return a.size_ == b.size_ &&
           std::memcmp(a.words(), b.words(), a.size_ * sizeof(std::uint32_t)) == 0;
  }
  friend std::strong_ordering operator<=>(const PathCode& a, const PathCode& b) {
    return a.view() <=> b.view();
  }

  /// PathView::hash() of the code.
  [[nodiscard]] std::size_t hash() const { return view().hash(); }

 private:
  struct Uninit {};  // tag: allocate for n words, caller fills them

  PathCode(Uninit, std::size_t n) : size_(static_cast<std::uint32_t>(n)) {
    if (n > kInlineWords) {
      cap_ = static_cast<std::uint32_t>(n);
      rep_.heap = new std::uint32_t[n];
    }
  }

  /// Copies `n` leading words of `src` into `dst` (freshly Uninit-built).
  /// When both sides are inline the whole fixed-size buffer is copied — a
  /// constant-length memcpy lowers to a handful of vector stores, skipping
  /// the length dispatch that dominates short variable copies. Words beyond
  /// dst.size_ are unspecified and never read (every observer is bounded by
  /// size_).
  static void copy_words(PathCode& dst, const PathCode& src, std::size_t n) {
    if (!dst.is_heap() && !src.is_heap()) {
      std::memcpy(dst.rep_.inline_w, src.rep_.inline_w,
                  sizeof(dst.rep_.inline_w));
    } else {
      std::memcpy(dst.mutable_words(), src.words(), n * sizeof(std::uint32_t));
    }
  }

  [[nodiscard]] bool is_heap() const { return cap_ > kInlineWords; }
  [[nodiscard]] const std::uint32_t* words() const {
    return is_heap() ? rep_.heap : rep_.inline_w;
  }
  [[nodiscard]] std::uint32_t* mutable_words() {
    return is_heap() ? rep_.heap : rep_.inline_w;
  }

  /// Leaves a moved-from object as the root code (inline, empty).
  void reset_to_root() {
    size_ = 0;
    cap_ = kInlineWords;
  }

  void grow(std::size_t ncap) {
    if (ncap < 2 * kInlineWords) ncap = 2 * kInlineWords;
    auto* nw = new std::uint32_t[ncap];
    std::memcpy(nw, words(), size_ * sizeof(std::uint32_t));
    if (is_heap()) delete[] rep_.heap;
    rep_.heap = nw;
    cap_ = static_cast<std::uint32_t>(ncap);
  }

  std::uint32_t size_ = 0;
  std::uint32_t cap_ = kInlineWords;  // > kInlineWords iff heap mode
  union Rep {
    std::uint32_t inline_w[kInlineWords];
    std::uint32_t* heap;
  } rep_;
};

}  // namespace ftbb::core
