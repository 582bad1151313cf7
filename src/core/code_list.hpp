// Shared, immutable lists of completion codes — the payload of work reports,
// full-table gossip and the termination broadcast (paper Section 5.3.2).
//
// Completion knowledge spreads epidemically: a contracted report fans out to
// several peers, and a full-table gossip re-ships every code a worker knows.
// A sent message never changes ("Building on Quicksand"), so one payload can
// serve the sender's export memo, every fan-out copy and every in-flight
// delivery. A CodeList is that payload: the codes' packed step words back to
// back in one reference-counted allocation, with per-code offsets and the
// wire size of the list's delta chain fixed at construction.
//
//  * Copying bumps an atomic reference count (a delivery built on one
//    simulator shard is destroyed on another); nothing is deep-copied.
//  * Reading yields PathViews into the shared words.
//  * chain_bytes() is O(1), so sizing a frame for the latency model
//    (core/frame.hpp) never re-encodes the codes after the first.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <span>
#include <vector>

#include "core/path_code.hpp"

namespace ftbb::core {

class CodeList {
  struct Rep;

 public:
  class Builder;

  /// Iteration in list order, yielding PathViews (valid while any copy of
  /// the list lives).
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = PathView;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = PathView;

    Iterator() = default;
    PathView operator*() const {
      return PathView(words_ + off_[0], off_[1] - off_[0]);
    }
    Iterator& operator++() {
      ++off_;
      return *this;
    }
    friend bool operator==(Iterator a, Iterator b) { return a.off_ == b.off_; }

   private:
    friend class CodeList;
    Iterator(const std::uint32_t* off, const std::uint32_t* words)
        : off_(off), words_(words) {}
    const std::uint32_t* off_ = nullptr;
    const std::uint32_t* words_ = nullptr;
  };

  /// Step words one list can hold (the offsets are 32-bit). Tolerant
  /// decoders reject longer lists as corrupt; building one aborts.
  static constexpr std::size_t kMaxWords = 0xffffffffu;

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

  [[nodiscard]] PathView operator[](std::size_t i) const {
    FTBB_CHECK(i < size());
    return *Iterator(rep_->offsets() + i, rep_->words());
  }
  [[nodiscard]] PathView back() const { return (*this)[size() - 1]; }

  [[nodiscard]] Iterator begin() const {
    return rep_ == nullptr ? Iterator()
                           : Iterator(rep_->offsets(), rep_->words());
  }
  [[nodiscard]] Iterator end() const {
    return rep_ == nullptr ? Iterator()
                           : Iterator(rep_->offsets() + rep_->count,
                                      rep_->words());
  }

  /// Wire bytes of the list's delta chain after its first code: the sum of
  /// chain_link_size(codes[i - 1], codes[i]) for i >= 1 (core/frame.hpp).
  /// Fixed at construction; a frame adds the first code's delta against its
  /// chain base.
  [[nodiscard]] std::size_t chain_bytes() const {
    return rep_ == nullptr ? 0 : rep_->chain_bytes;
  }

  /// Owned copies of the codes, in order (tests and diagnostics).
  [[nodiscard]] std::vector<PathCode> to_vector() const;

  friend bool operator==(const CodeList& a, const CodeList& b);

 private:
  /// Header of the single allocation; trailing storage holds
  /// offsets[code_cap + 1] and then words[word_cap]. Code i spans
  /// words[offsets[i] .. offsets[i + 1]).
  struct Rep {
    std::atomic<std::uint32_t> refs{1};
    std::uint32_t count = 0;
    std::uint32_t code_cap = 0;
    std::uint32_t word_cap = 0;
    std::size_t chain_bytes = 0;  // see CodeList::chain_bytes()

    std::uint32_t* offsets() { return reinterpret_cast<std::uint32_t*>(this + 1); }
    const std::uint32_t* offsets() const {
      return reinterpret_cast<const std::uint32_t*>(this + 1);
    }
    std::uint32_t* words() { return offsets() + code_cap + 1; }
    const std::uint32_t* words() const { return offsets() + code_cap + 1; }
    [[nodiscard]] std::uint32_t word_count() const { return offsets()[count]; }
  };

  explicit CodeList(Rep* rep) : rep_(rep) {}
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

  /// Room for `codes` more codes totalling `words` more step words.
  void reserve(std::size_t codes, std::size_t words);

  /// Appends a copy of `code`, sizing its chain link against the code
  /// appended before it.
  void append(PathView code);
  /// The same with the link size supplied: `link` is chain_link_size(
  /// previous code, code), which the completion trie's DFS reads off its
  /// nodes instead of comparing words. Ignored for the first code.
  void append(PathView code, std::size_t link);

  [[nodiscard]] std::size_t size() const {
    return rep_ == nullptr ? 0 : rep_->count;
  }
  [[nodiscard]] std::size_t word_count() const {
    return rep_ == nullptr ? 0 : rep_->word_count();
  }

  /// The sealed list; the builder is left empty.
  CodeList finish();

 private:
  Rep* rep_ = nullptr;
};

}  // namespace ftbb::core
