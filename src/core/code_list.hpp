// Shared, immutable, front-coded lists of completion codes — the payload of
// work reports, full-table gossip and the termination broadcast, and the
// chunks of the completion table itself (paper Section 5.3.2).
//
// Completion knowledge spreads epidemically: a contracted report fans out to
// several peers, and a full-table gossip re-ships every code a worker knows.
// A sent message never changes ("Building on Quicksand"), so one payload can
// serve the sender's export memo, every fan-out copy and every in-flight
// delivery. A CodeList is that payload, in one reference-counted allocation.
//
// Front coding: code i is stored as a record (depth, lcp, words...), where
// lcp is its common prefix with code i - 1 and the words are only those
// after that prefix — exactly the (trim, add, steps) link the wire chain
// ships (core/frame.hpp), so a frame is written straight off the records.
// Sorted, clustered lists (exports, report batches) share long prefixes:
// a Table-1 code of depth ~32 costs a handful of words. Every kRestart-th
// record stores its whole code, so operator[] and back() decode at most
// kRestart - 1 records after one. The encoding is canonical: equal code
// sequences give equal records, however the list was built.
//
//  * Copying bumps an atomic reference count (a delivery built on one
//    simulator shard is destroyed on another); nothing is deep-copied.
//  * Iteration decodes each code into a buffer the iterator owns: the view
//    it yields lives until the iterator advances. Keep a PathCode to keep a
//    code. operator[] and back() return owned PathCodes.
//  * chain_bytes() is O(1), so sizing a frame for the latency model never
//    re-encodes the codes after the first.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

#include "core/path_code.hpp"

namespace ftbb::core {

class CodeList {
  struct Rep;

 public:
  class Builder;

  /// Records between two whole-code records.
  static constexpr std::size_t kRestart = 16;

  /// Record words one list can hold (offsets are 32-bit). Tolerant
  /// decoders reject longer lists as corrupt; building one aborts.
  static constexpr std::size_t kMaxWords = 0xffffffffu;

  /// Body words of code `index` of a list: two header words, then the
  /// whole code at a restart and the words after `lcp` elsewhere.
  [[nodiscard]] static constexpr std::size_t record_words(std::size_t index,
                                                         std::size_t depth,
                                                         std::size_t lcp) {
    return 2 + (index % kRestart == 0 ? depth : depth - lcp);
  }

  /// Body words `list`'s records take once Builder::append_list() appends
  /// them after `at` codes, the first sharing `lcp` words with the code
  /// before it: the list's own words, less the first record's prefix and
  /// give or take the prefixes of records that gain or lose a restart slot.
  [[nodiscard]] static std::size_t appended_words(const CodeList& list, std::size_t at,
                                                  std::size_t lcp);

  /// Varint bytes of `n` step words: one each, and a byte more per seven
  /// bits past the first seven. Words of small variables — nearly all of
  /// them — take the one-pass path.
  [[nodiscard]] static std::size_t word_bytes(const std::uint32_t* words,
                                              std::size_t n) {
    std::uint32_t any = 0;
    for (std::size_t i = 0; i < n; ++i) any |= words[i];
    if (any < (1u << 7)) return n;
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < n; ++i) bytes += word_size(words[i]);
    return bytes;
  }
  /// Varint bytes of one step word.
  [[nodiscard]] static std::size_t word_size(std::uint32_t w) {
    return 1 + static_cast<std::size_t>(w >= (1u << 7)) + (w >= (1u << 14)) +
           (w >= (1u << 21)) + (w >= (1u << 28));
  }

  /// Copies `n` words between buffers that do not overlap. Most copies are
  /// a record's suffix of a few words, or a chunk head's whole code: up to
  /// 32 words take fixed-size moves from each end of the range, which may
  /// overlap each other.
  static void copy_words(std::uint32_t* dst, const std::uint32_t* src, std::size_t n) {
    const auto move = [&](std::size_t at, std::size_t words) {  // `words` is a constant
      std::memcpy(dst + at, src + at, words * sizeof(std::uint32_t));
    };
    if (n <= 2) {
      if (n != 0) move(0, 1);
      if (n == 2) move(1, 1);
    } else if (n <= 4) {
      move(0, 2);
      move(n - 2, 2);
    } else if (n <= 8) {
      move(0, 4);
      move(n - 4, 4);
    } else if (n <= 16) {
      move(0, 8);
      move(n - 8, 8);
    } else if (n <= 32) {
      move(0, 16);
      move(n - 16, 16);
    } else {
      std::memcpy(dst, src, n * sizeof(std::uint32_t));
    }
  }

  /// One record: a code's depth, its common prefix with the code before it
  /// (0 for the first) and the depth - lcp words after that prefix.
  struct Link {
    std::uint32_t depth = 0;
    std::uint32_t lcp = 0;
    const std::uint32_t* suffix = nullptr;
    [[nodiscard]] std::uint32_t add() const { return depth - lcp; }
  };

  /// The record at `rec`, the index-th of its list.
  [[nodiscard]] static Link link_at(const std::uint32_t* rec, std::size_t index) {
    return Link{rec[0], rec[1], rec + 2 + (index % kRestart == 0 ? rec[1] : 0)};
  }

  /// Reads the records in order without decoding them.
  class Links {
   public:
    Links() = default;
    explicit Links(const CodeList& list)
        : pos_(list.rep_ == nullptr ? nullptr : list.rep_->body()),
          left_(list.size()) {}
    [[nodiscard]] bool done() const { return left_ == 0; }
    /// Index of the record next() returns.
    [[nodiscard]] std::size_t index() const { return index_; }
    /// Records not read yet.
    [[nodiscard]] std::size_t left() const { return left_; }
    /// The stored prefix of the record next() returns (not done()).
    [[nodiscard]] std::uint32_t next_lcp() const { return pos_[1]; }
    Link next() {
      const Link l = link_at(pos_, index_);
      pos_ = l.suffix + l.add();
      ++index_;
      --left_;
      return l;
    }

   private:
    const std::uint32_t* pos_ = nullptr;
    std::size_t index_ = 0;
    std::size_t left_ = 0;
  };

  /// A growable word buffer holding one decoded code.
  class Code {
   public:
    Code() = default;
    Code(const Code& other) { assign(other.view()); }
    Code& operator=(const Code& other) {
      if (this != &other) assign(other.view());
      return *this;
    }
    Code(Code&&) noexcept = default;
    Code& operator=(Code&&) noexcept = default;

    [[nodiscard]] PathView view() const { return PathView(w_.get(), size_); }
    [[nodiscard]] std::size_t depth() const { return size_; }
    [[nodiscard]] std::uint32_t word(std::size_t i) const { return w_[i]; }
    /// Keeps the first `keep` words and appends `n` more.
    void splice(std::size_t keep, const std::uint32_t* words, std::size_t n) {
      reserve(keep + n);
      copy_words(w_.get() + keep, words, n);
      size_ = keep + n;
    }
    void apply(const Link& l) { splice(l.lcp, l.suffix, l.add()); }
    void assign(PathView code) { splice(0, code.words(), code.depth()); }
    /// Room for `n` words; the words held are kept.
    void reserve(std::size_t n) {
      if (n > cap_) grow(n);
    }
    /// Sets the depth to `n` <= the reserved room; new words are unset.
    void resize(std::size_t n) { size_ = n; }
    [[nodiscard]] std::uint32_t* data() { return w_.get(); }

   private:
    void grow(std::size_t n);

    std::unique_ptr<std::uint32_t[]> w_;
    std::size_t size_ = 0;
    std::size_t cap_ = 0;
  };

  /// Decodes the records in order into a buffer it owns.
  class Decoder {
   public:
    Decoder() = default;
    explicit Decoder(const CodeList& list) : links_(list) {
      if (list.rep_ != nullptr) code_.reserve(list.rep_->max_depth);
    }
    [[nodiscard]] bool done() const { return links_.done(); }
    /// Decodes the next record and returns it; code() is now that code.
    Link next() {
      const Link l = links_.next();
      code_.apply(l);
      return l;
    }
    /// The code next() decoded last; valid until next() is called again.
    [[nodiscard]] PathView code() const { return code_.view(); }

   private:
    Links links_;
    Code code_;
  };

  /// Input iteration in list order, yielding views into the iterator's own
  /// buffer (valid until the iterator advances or dies).
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = PathView;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = PathView;

    Iterator() = default;
    PathView operator*() const { return dec_.code(); }
    Iterator& operator++() {
      ++index_;
      if (!dec_.done()) dec_.next();
      return *this;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.index_ == b.index_;
    }

   private:
    friend class CodeList;
    Iterator(const CodeList& list, std::size_t index) : index_(index) {
      if (index_ < list.size()) {
        dec_ = Decoder(list);
        dec_.next();
      }
    }
    Decoder dec_;
    std::size_t index_ = 0;
  };

  CodeList() noexcept = default;
  /// `{a, b}` lists; PathCodes convert to views implicitly.
  CodeList(std::initializer_list<PathView> codes);
  explicit CodeList(std::span<const PathView> codes);
  explicit CodeList(std::span<const PathCode> codes);

  CodeList(const CodeList& other) noexcept : rep_(other.rep_) { retain(); }
  CodeList(CodeList&& other) noexcept : rep_(other.rep_) {
    other.rep_ = nullptr;
  }
  CodeList& operator=(const CodeList& other) noexcept {
    CodeList copy(other);
    swap(copy);
    return *this;
  }
  CodeList& operator=(CodeList&& other) noexcept {
    CodeList moved(std::move(other));
    swap(moved);
    return *this;
  }
  ~CodeList() { release(rep_); }

  void swap(CodeList& other) noexcept {
    Rep* r = rep_;
    rep_ = other.rep_;
    other.rep_ = r;
  }

  [[nodiscard]] std::size_t size() const {
    return rep_ == nullptr ? 0 : rep_->count;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Code i, decoded from the whole-code record at or before it.
  [[nodiscard]] PathCode operator[](std::size_t i) const;
  [[nodiscard]] PathCode back() const { return (*this)[size() - 1]; }
  /// Decodes the last code into `out` (the list must not be empty).
  void back_into(Code& out) const { decode(*rep_, rep_->count - 1, out); }
  /// Depth of the last code, without decoding it.
  [[nodiscard]] std::size_t back_depth() const {
    return rep_ == nullptr ? 0 : rep_->body()[rep_->last];
  }
  /// The last record (the list must not be empty).
  [[nodiscard]] Link back_link() const {
    return link_at(rep_->body() + rep_->last, rep_->count - 1);
  }
  /// The first code, stored whole: a view into the list, no decoding.
  [[nodiscard]] PathView front() const {
    const std::uint32_t* r = rep_->body();
    return PathView(r + 2, r[0]);
  }

  [[nodiscard]] Iterator begin() const { return Iterator(*this, 0); }
  [[nodiscard]] Iterator end() const {
    Iterator it;
    it.index_ = size();
    return it;
  }

  /// Wire bytes of the list's delta chain after its first code: the sum of
  /// chain_link_size() over the records after the first (core/frame.hpp).
  /// A frame adds the first code's delta against its chain base.
  [[nodiscard]] std::size_t chain_bytes() const {
    return rep_ == nullptr ? 0 : rep_->chain_bytes;
  }

  /// Words the records occupy (record headers included): the list's size
  /// in memory, less a fixed header.
  [[nodiscard]] std::size_t body_words() const {
    return rep_ == nullptr ? 0 : rep_->size;
  }
  /// Bytes of the list's one allocation.
  [[nodiscard]] std::size_t allocated_bytes() const;

  /// Owned copies of the codes, in order (tests and diagnostics).
  [[nodiscard]] std::vector<PathCode> to_vector() const;

  friend bool operator==(const CodeList& a, const CodeList& b);

 private:
  /// Header of the single allocation; trailing storage holds the body
  /// offsets of the whole-code records (restarts[restart_cap]) and then the
  /// records (body[cap]).
  struct Rep {
    std::atomic<std::uint32_t> refs{1};
    std::uint32_t count = 0;
    std::uint32_t size = 0;  // body words in use
    std::uint32_t cap = 0;
    std::uint32_t restart_cap = 0;
    std::uint32_t max_depth = 0;
    std::uint32_t last = 0;  // body offset of the last record
    std::size_t chain_bytes = 0;  // see CodeList::chain_bytes()

    std::uint32_t* restarts() { return reinterpret_cast<std::uint32_t*>(this + 1); }
    const std::uint32_t* restarts() const {
      return reinterpret_cast<const std::uint32_t*>(this + 1);
    }
    std::uint32_t* body() { return restarts() + restart_cap; }
    const std::uint32_t* body() const { return restarts() + restart_cap; }
  };

  explicit CodeList(Rep* rep) : rep_(rep) {}
  /// Decodes code i from the whole-code record at or before it.
  static void decode(const Rep& rep, std::size_t i, Code& out);
  /// An empty block with room for `restart_cap` restarts and `cap` words.
  static Rep* allocate(std::size_t restart_cap, std::size_t cap);
  /// A new block of the given room holding a copy of `rep`'s contents.
  static Rep* copy(const Rep& rep, std::size_t restart_cap, std::size_t cap);
  /// copy() of `rep` (if any) into room, releasing `rep`.
  static Rep* reallocate(Rep* rep, std::size_t restart_cap, std::size_t cap);
  /// Wire bytes of one chain link (core/frame.hpp's chain_link_size()):
  /// varints of trim and add, then the `add` step words at `words`.
  static std::size_t link_bytes(std::size_t trim, std::size_t add,
                                const std::uint32_t* words) {
    return word_size(static_cast<std::uint32_t>(trim)) +
           word_size(static_cast<std::uint32_t>(add)) + word_bytes(words, add);
  }
  void retain() const {
    if (rep_ != nullptr) rep_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  static void release(Rep* rep);

  Rep* rep_ = nullptr;
};

/// Appends codes into one growing allocation and seals it as a CodeList.
/// Callers that know the final sizes reserve() them up front and never
/// reallocate; decoders reserve only what their input can hold and grow.
class CodeList::Builder {
 public:
  Builder() = default;
  Builder(const Builder&) = delete;
  Builder& operator=(const Builder&) = delete;
  ~Builder() { release(rep_); }

  /// Room for `codes` more codes whose records take `words` more body
  /// words (two header words per code, plus its stored words).
  void reserve(std::size_t codes, std::size_t words) {
    if (rep_ != nullptr && rep_->size + words <= rep_->cap &&
        rep_->count + codes <= rep_->restart_cap * kRestart) {
      return;
    }
    grow(codes, words);
  }

  /// Appends `code`, whose common prefix with the code appended before it
  /// is `lcp` (ignored for the first code). The caller knows the prefix —
  /// a merge, a decoder or a list it copies — so no words are compared.
  void append(PathView code, std::size_t lcp) {
    const std::size_t index = size();
    const std::size_t prev_depth = back_depth();
    if (index == 0) lcp = 0;  // the first code links to the chain base
    FTBB_CHECK(lcp <= code.depth() && lcp <= prev_depth);
    const std::size_t words = record_words(index, code.depth(), lcp);
    reserve(1, words);
    Rep& r = *rep_;
    std::uint32_t* rec = r.body() + r.size;
    const bool whole = index % kRestart == 0;
    if (whole) r.restarts()[index / kRestart] = r.size;
    const std::size_t from = whole ? 0 : lcp;
    rec[0] = static_cast<std::uint32_t>(code.depth());
    rec[1] = static_cast<std::uint32_t>(lcp);
    copy_words(rec + 2, code.words() + from, code.depth() - from);
    if (index != 0) {
      r.chain_bytes += link_bytes(prev_depth - lcp, code.depth() - lcp, code.words() + lcp);
    }
    r.last = r.size;
    r.size += static_cast<std::uint32_t>(words);
    if (code.depth() > r.max_depth) r.max_depth = static_cast<std::uint32_t>(code.depth());
    ++r.count;
  }

  /// Appends every code of `list`, whose first code shares `lcp` words with
  /// the code appended before it, by copying its records: only the first
  /// record (which takes `lcp`) and the records that land on or leave a
  /// restart slot are rewritten, and a record that becomes whole takes its
  /// prefix from the records before it. Chain bytes are the list's cached
  /// total plus the first record's link.
  void append_list(const CodeList& list, std::size_t lcp);

  /// Removes the last code (the completion table's merge contracts it
  /// away). Walks back from the last whole-code record.
  void pop_back();

  [[nodiscard]] std::size_t size() const {
    return rep_ == nullptr ? 0 : rep_->count;
  }
  /// Body words in use (decoders bound the list with it).
  [[nodiscard]] std::size_t body_words() const {
    return rep_ == nullptr ? 0 : rep_->size;
  }
  /// Depth of the last code appended.
  [[nodiscard]] std::size_t back_depth() const {
    return rep_ == nullptr || rep_->count == 0 ? 0 : rep_->body()[rep_->last];
  }

  /// Decodes the last code appended into `out` (not empty).
  void back_into(Code& out) const { decode(*rep_, rep_->count - 1, out); }
  /// The last record appended (not empty).
  [[nodiscard]] Link back_link() const {
    return link_at(rep_->body() + rep_->last, rep_->count - 1);
  }

  /// The sealed list, trimmed to its size; the builder is left empty.
  CodeList finish();
  /// An exactly sized copy of the list built so far; the builder is left
  /// empty but keeps its room for the next list.
  CodeList take();
  /// Drops the codes appended so far, keeping the room.
  void clear();

 private:
  void grow(std::size_t codes, std::size_t words);
  void resize_rep(std::size_t restart_cap, std::size_t cap);

  Rep* rep_ = nullptr;
};

}  // namespace ftbb::core
