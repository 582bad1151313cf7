// Compact binary serialization.
//
// Every FTBB wire message is encoded through ByteWriter/ByteReader so that
// the simulator's communication-cost model (latency = alpha + beta * bytes,
// exactly the paper's 1.5 + 0.005*L ms) and the storage-space measurements
// (Table 1) are computed from honest on-the-wire byte counts rather than
// sizeof() guesses. Integers use LEB128 varints because subproblem codes are
// dominated by small variable indices; this is also what makes the paper's
// work-report compression observable in bytes, not just in code counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/check.hpp"

namespace ftbb::support {

/// Writes `v` as an unsigned LEB128 varint at `out` (room for varint_size(v)
/// bytes) and returns the end: ByteWriter's encoder, for raw buffers too.
inline std::uint8_t* put_varint(std::uint8_t* out, std::uint64_t v) {
  while (v >= 0x80) {
    *out++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *out++ = static_cast<std::uint8_t>(v);
  return out;
}

/// Writes `v`'s IEEE-754 bits at `out`, 8 bytes little-endian (ByteReader::f64
/// reads them), and returns the end.
inline std::uint8_t* put_f64(std::uint8_t* out, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  __builtin_memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) *out++ = static_cast<std::uint8_t>(bits >> (8 * i));
  return out;
}

/// Append-only encoder producing a byte vector.
///
/// A counting() writer accepts the same encode calls but accumulates size()
/// only, never touching a buffer — the allocation-free path behind every
/// per-send frame_size() latency charge.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Counting-only writer: size() without bytes. data()/take() are invalid.
  static ByteWriter counting() { return ByteWriter(true); }
  [[nodiscard]] bool counting_only() const { return counting_; }

  void u8(std::uint8_t v) {
    if (counting_) {
      ++count_;
      return;
    }
    buf_.push_back(v);
  }

  /// Unsigned LEB128 varint, 1..10 bytes.
  void varint(std::uint64_t v) {
    std::uint8_t b[10];
    bytes(b, static_cast<std::size_t>(put_varint(b, v) - b));
  }

  /// Signed values via zigzag so small negatives stay small.
  void svarint(std::int64_t v) {
    varint((static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63));
  }

  /// IEEE-754 doubles verbatim (bounds, incumbents, timestamps).
  void f64(double v) {
    std::uint8_t b[8];
    bytes(b, static_cast<std::size_t>(put_f64(b, v) - b));
  }

  void bytes(const void* data, std::size_t n) {
    if (counting_) {
      count_ += n;
      return;
    }
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  /// Counting writers only: accounts `n` bytes that a payload of known
  /// encoded size (the cached chain bytes of a CodeList's records) would
  /// write, without walking it.
  void add_counted(std::size_t n) {
    FTBB_CHECK_MSG(counting_, "add_counted needs a counting ByteWriter");
    count_ += n;
  }

  void str(std::string_view s) {
    varint(s.size());
    bytes(s.data(), s.size());
  }

  [[nodiscard]] std::size_t size() const {
    return counting_ ? count_ : buf_.size();
  }
  [[nodiscard]] const std::vector<std::uint8_t>& data() const {
    FTBB_CHECK_MSG(!counting_, "counting ByteWriter holds no bytes");
    return buf_;
  }
  std::vector<std::uint8_t> take() {
    FTBB_CHECK_MSG(!counting_, "counting ByteWriter holds no bytes");
    return std::move(buf_);
  }

 private:
  explicit ByteWriter(bool counting) : counting_(counting) {}

  std::vector<std::uint8_t> buf_;
  std::size_t count_ = 0;
  bool counting_ = false;
};

/// Sequential decoder over a byte span, in one of two failure disciplines:
///
///  * kTrusted (default): decoding errors abort via FTBB_CHECK. Inside the
///    simulator a malformed message is an implementation bug, never an
///    environmental condition (the network model does not corrupt payloads,
///    matching the paper's assumption that links do not corrupt messages).
///  * kTolerant: errors latch a failure flag instead of aborting; every
///    subsequent read returns a zero value and ok() turns false. This is the
///    discipline for bytes that crossed a real transport — a corrupt or
///    truncated frame must surface as a droppable decode error, not a
///    process abort.
class ByteReader {
 public:
  enum class Policy : std::uint8_t { kTrusted = 0, kTolerant = 1 };

  ByteReader(const std::uint8_t* data, std::size_t size,
             Policy policy = Policy::kTrusted)
      : data_(data), size_(size), policy_(policy) {}
  explicit ByteReader(const std::vector<std::uint8_t>& v,
                      Policy policy = Policy::kTrusted)
      : ByteReader(v.data(), v.size(), policy) {}

  /// False once any read failed (tolerant mode only; trusted mode aborts).
  [[nodiscard]] bool ok() const { return !failed_; }

  /// Marks the stream corrupt — tolerant readers latch the failure, trusted
  /// readers abort. For decoders that discover semantically impossible
  /// values (implausible depths, counts exceeding the input).
  void mark_corrupt(const char* why) { fail(why); }

  /// True when a collection of `n` elements, each occupying at least
  /// `min_bytes_each` input bytes, could still fit in the remaining input.
  /// Decoders MUST gate reserve() on attacker-controlled counts with this —
  /// a hostile varint count must not allocate beyond the input size.
  [[nodiscard]] bool fits_count(std::uint64_t n, std::size_t min_bytes_each = 1) {
    if (failed_) return false;
    if (min_bytes_each == 0 ||
        n <= static_cast<std::uint64_t>(remaining() / min_bytes_each)) {
      return true;
    }
    fail("ByteReader: collection count exceeds remaining bytes");
    return false;
  }

  std::uint8_t u8() {
    if (failed_ || pos_ >= size_) {
      fail("ByteReader: truncated u8");
      return 0;
    }
    return data_[pos_++];
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (failed_ || pos_ >= size_) {
        fail("ByteReader: truncated varint");
        return 0;
      }
      const std::uint8_t byte = data_[pos_++];
      if (shift >= 64) {
        fail("ByteReader: varint overflow");
        return 0;
      }
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if (!(byte & 0x80)) return v;
      shift += 7;
    }
  }

  std::int64_t svarint() {
    const std::uint64_t z = varint();
    return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  double f64() {
    if (failed_ || size_ - pos_ < 8) {
      fail("ByteReader: truncated f64");
      return 0.0;
    }
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) bits |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    double v;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string str() {
    const std::uint64_t n = varint();
    // remaining() comparison, not pos_ + n: a huge n must not wrap the sum.
    if (failed_ || n > size_ - pos_) {
      fail("ByteReader: truncated string");
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  [[nodiscard]] bool done() const { return pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

 private:
  void fail(const char* why) {
    if (policy_ == Policy::kTrusted && !failed_) {
      FTBB_CHECK_MSG(false, why);
    }
    failed_ = true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  Policy policy_ = Policy::kTrusted;
  bool failed_ = false;
};

/// Number of bytes varint(v) would occupy; used for size estimation without
/// materializing a buffer (storage accounting of completion tables).
constexpr std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

}  // namespace ftbb::support
