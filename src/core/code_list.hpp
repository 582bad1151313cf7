// Shared, immutable lists of completion codes — the payload of work reports,
// full-table gossip and the termination broadcast (paper Section 5.3.2).
//
// Completion knowledge spreads epidemically: a contracted report fans out to
// several peers, and a full-table gossip re-ships every code a worker knows.
// A sent message never changes ("Building on Quicksand"), so one payload can
// serve the sender's export memo, every fan-out copy and every in-flight
// delivery. A CodeList is that payload: the codes' packed step words back to
// back in one reference-counted allocation, with per-code offsets and the
// exact legacy-encoded byte count fixed at construction.
//
//  * Copying bumps an atomic reference count (a delivery built on one
//    simulator shard is destroyed on another); nothing is deep-copied.
//  * Reading yields PathViews into the shared words.
//  * encoded_bytes() is O(1), so sizing a message for the latency model
//    never re-encodes its codes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <span>
#include <vector>

#include "core/path_code.hpp"
#include "support/bytes.hpp"

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

  /// Exact size of encode(): the varint code count plus every code's
  /// PathCode::encode() bytes. Fixed at construction.
  [[nodiscard]] std::size_t encoded_bytes() const {
    return support::varint_size(size()) + (rep_ == nullptr ? 0 : rep_->bytes);
  }

  /// Legacy flat encoding: varint count, then each code's encode(). A
  /// counting writer is advanced by encoded_bytes() without a walk.
  void encode(support::ByteWriter& w) const;
  /// Inverse of encode(). Checks the count against the input before
  /// reserving; a tolerant reader surfaces malformed input through r.ok().
  static CodeList decode(support::ByteReader& r);

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
    std::size_t bytes = 0;  // sum of the codes' encoded sizes

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

  /// Appends a copy of `code`. `encoded` is code.encoded_size(), passed by
  /// callers that already know it (the completion trie keeps it per node).
  void append(PathView code) { append(code, code.encoded_size()); }
  void append(PathView code, std::size_t encoded);

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
