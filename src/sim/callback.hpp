// InlineCallback — the kernel's allocation-free event closure.
//
// sim::Callback used to be std::function<void()>; at planetary populations
// the hot path constructs and destroys millions of these per wall-second and
// the std::function heap allocation (its small-buffer optimization tops out
// around two pointers) dominated the event engine's profile. InlineCallback
// is a move-only type-erased callable tuned for that one job:
//
//   * SBO contract: a callable whose decayed type is <= kInlineBytes (32)
//     bytes, at most pointer-aligned, and nothrow-move-constructible lives
//     entirely inside the callback object — schedule and dispatch perform
//     ZERO heap allocations for it. The callback is 40 B, so an EventNode
//     around it fills one cache line. Every self-scheduling closure of the
//     simulated cluster fits (worker timers: this + kind + gen + epoch =
//     32 B; wakes: this + gen = 16 B; fault injections: 24 B; storage
//     sampling: 8 B).
//   * Overflow contract: a larger capture (a message delivery — the
//     network's DeliverTask around a closure holding a core::Message by
//     value — is 112 B; the baselines' deliveries, 48–64 B) spills into a
//     fixed 128-byte block drawn from a thread-local freelist. Blocks
//     recycle through mailboxes and Network::send's deliver path: after
//     warm-up the freelist serves every spill, so the steady state performs
//     zero mallocs per event on the overflow path too (the differential
//     suite asserts the inline guarantee; BENCH_kernel.json tracks both).
//     Captures beyond the block size fall back to exact-size operator new —
//     nothing on a hot path does.
//   * Move-only (no copy): events are scheduled once and dispatched once; a
//     copyable closure would force every capture to be copyable and invite
//     accidental duplication of Message payloads.
//
// Thread safety: the freelist is thread-local, so allocation and release
// never contend. A block may be *filled* on one thread and *freed* on
// another (a cross-shard event is constructed by the source shard and
// destroyed by the destination after dispatch); the block then joins the
// destination's freelist. Handoffs synchronize through the mailbox mutex and
// the epoch barrier, exactly like the event payloads themselves, so reuse is
// race-free under TSan. Shard threads free their remaining blocks at exit.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace ftbb::sim {

namespace cbdetail {

inline constexpr std::size_t kInlineBytes = 32;
inline constexpr std::size_t kBlockBytes = 128;
/// Freelist cap (512 KiB/thread). Producer/consumer thread pairs that only
/// ever free here (the rt runtime's scheduler thread) would otherwise hoard
/// every block the producers mint; beyond the cap, blocks go back to the
/// system allocator.
inline constexpr std::size_t kMaxPoolBlocks = 4096;

/// Thread-local recycling pool of fixed-size overflow blocks.
struct BlockPool {
  std::vector<void*> free;
  std::uint64_t fresh = 0;  // blocks obtained from operator new
  std::uint64_t hits = 0;   // blocks served from the freelist
  ~BlockPool() {
    for (void* block : free) ::operator delete(block);
  }
};

inline BlockPool& block_pool() {
  thread_local BlockPool pool;
  return pool;
}

inline void* alloc_block() {
  BlockPool& pool = block_pool();
  if (!pool.free.empty()) {
    void* block = pool.free.back();
    pool.free.pop_back();
    ++pool.hits;
    return block;
  }
  ++pool.fresh;
  return ::operator new(kBlockBytes);
}

inline void free_block(void* block) {
  BlockPool& pool = block_pool();
  if (pool.free.size() >= kMaxPoolBlocks) {
    ::operator delete(block);
    return;
  }
  pool.free.push_back(block);
}

struct VTable {
  void (*invoke)(void* target);
  void (*destroy)(void* target);
  /// Moves the representation from buffer `from` to buffer `to`: an inline
  /// target is move-constructed and its source destroyed; a heap target's
  /// block pointer is copied. Dispatching both through the table keeps a
  /// move from reading buffer bytes the stored callable never wrote.
  void (*relocate)(void* from, void* to);
  bool heap;    // target lives in a heap block (pointer stored in the buffer)
  bool pooled;  // that block came from (and returns to) the thread freelist
};

template <typename F>
inline constexpr bool fits_inline =
    sizeof(F) <= kInlineBytes && alignof(F) <= alignof(void*) &&
    std::is_nothrow_move_constructible_v<F>;

template <typename F>
void invoke_fn(void* target) {
  (*static_cast<F*>(target))();
}

template <typename F>
void destroy_fn(void* target) {
  static_cast<F*>(target)->~F();
}

template <typename F>
void relocate_fn(void* from, void* to) {
  F* src = static_cast<F*>(from);
  ::new (to) F(std::move(*src));
  src->~F();
}

inline void relocate_block_ptr(void* from, void* to) {
  std::memcpy(to, from, sizeof(void*));
}

template <typename F>
inline constexpr VTable inline_vtable{&invoke_fn<F>, &destroy_fn<F>,
                                      &relocate_fn<F>, false, false};

template <typename F>
inline constexpr VTable heap_vtable{&invoke_fn<F>, &destroy_fn<F>,
                                    &relocate_block_ptr, true,
                                    sizeof(F) <= kBlockBytes};

}  // namespace cbdetail

class InlineCallback {
 public:
  static constexpr std::size_t kInlineBytes = cbdetail::kInlineBytes;

  InlineCallback() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineCallback> &&
                                        std::is_invocable_r_v<void, D&>>>
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for std::function
  InlineCallback(F&& f) {
    static_assert(alignof(D) <= alignof(std::max_align_t),
                  "over-aligned callable capture");
    if constexpr (cbdetail::fits_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      vt_ = &cbdetail::inline_vtable<D>;
    } else {
      void* block = sizeof(D) <= cbdetail::kBlockBytes
                        ? cbdetail::alloc_block()
                        : ::operator new(sizeof(D));
      ::new (block) D(std::forward<F>(f));
      std::memcpy(buf_, &block, sizeof(void*));
      vt_ = &cbdetail::heap_vtable<D>;
    }
  }

  InlineCallback(InlineCallback&& other) noexcept { adopt(other); }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      adopt(other);
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  void operator()() { vt_->invoke(target()); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return vt_ != nullptr;
  }

  /// Whether the callable lives in the inline buffer (tests / benches).
  [[nodiscard]] bool is_inline() const noexcept {
    return vt_ != nullptr && !vt_->heap;
  }

  /// Hints the cache to load a spilled callable's block (its first
  /// kBlockBytes: a pooled block is exactly that) ahead of the call. An
  /// inline callable lives in the callback itself, so there is nothing more
  /// to fetch. The three hints reach every line of the block wherever it
  /// starts.
  void prefetch() const noexcept {
    if (vt_ == nullptr || !vt_->heap) return;
    const unsigned char* block = nullptr;
    std::memcpy(&block, buf_, sizeof(void*));
    __builtin_prefetch(block);
    __builtin_prefetch(block + cbdetail::kBlockBytes / 2);
    __builtin_prefetch(block + cbdetail::kBlockBytes - 1);
  }

  void reset() noexcept {
    if (vt_ == nullptr) return;
    void* t = target();
    vt_->destroy(t);
    if (vt_->heap) {
      if (vt_->pooled) {
        cbdetail::free_block(t);
      } else {
        ::operator delete(t);
      }
    }
    vt_ = nullptr;
  }

 private:
  void adopt(InlineCallback& other) noexcept {
    vt_ = other.vt_;
    if (vt_ == nullptr) return;
    vt_->relocate(other.buf_, buf_);
    other.vt_ = nullptr;
  }

  [[nodiscard]] void* target() noexcept {
    if (!vt_->heap) return buf_;
    void* block = nullptr;
    std::memcpy(&block, buf_, sizeof(void*));
    return block;
  }

  const cbdetail::VTable* vt_ = nullptr;
  alignas(void*) unsigned char buf_[kInlineBytes];
};

/// The kernel's event closure type (see the SBO contract above).
using Callback = InlineCallback;

}  // namespace ftbb::sim
