// EventQueue — ladder/calendar pending-event set with bit-exact stamp order.
//
// The seed kernel kept every pending event in one binary heap per shard
// (std::push_heap / std::pop_heap over a contiguous vector). That is O(log n)
// per operation with cache-hostile sift paths; at planetary populations
// (millions of pending events) the heap IS the profile. This queue replaces
// it with a ladder queue (Tang et al.'s refinement of Brown's calendar
// queue): events are binned by time band into rungs of 128 buckets, finer
// rungs spawn lazily when a front bucket is dense, and only the currently
// active band lives in a real stamp-ordered heap (`bottom_`). Schedule and
// pop touch one bucket append / one small-heap sift — O(1) amortized,
// independent of the total pending count.
//
// Determinism argument (why dispatch order is unchanged by construction):
//   1. Band assignment is a monotone function of t — clamp(floor((t-start)/
//      width)) with boundaries fixed at rung-build time — so t1 <= t2 never
//      maps t1 to a later band than t2, and equal timestamps always share a
//      band. Consumed bands (idx < cur) cascade to the next-finer rung and
//      ultimately to `bottom_`.
//   2. `bottom_` is a true min-heap on the FULL canonical stamp
//      (t, src, seq) — the verbatim seed comparator — so within the active
//      band, and in particular within same-timestamp tie storms, dispatch
//      order is identical to the seed heap's.
//   3. The kernel only schedules at t >= now, so a late push into an
//      already-consumed band joins `bottom_` before anything of its stamp
//      has been popped.
//   (1) + (2) + (3) give the same total order as one global heap; an
//   FTBB_CHECK on every pop enforces time monotonicity at runtime, and
//   tests/event_queue_diff_test.cpp proves order identity against the
//   verbatim seed heap (preserved in bench/legacy_event_queue.hpp) under
//   randomized interleaved schedule/pop streams.
//
// Memory: storage is sized by the peak pending count, not by the high water
// of each band. Events live in slab-allocated EventNodes of one cache line
// each, recycled through an intrusive freelist (pop -> dispatch -> recycle).
// Buckets and the far band are chains of fixed 512-byte pointer blocks drawn
// from one pool per queue; a band hands its blocks back the moment it is
// consumed, so the pool needs the blocks of the events pending at once plus
// at most one partial block per bucket, wherever in time the events sit.
// The pool grows in geometric slabs, so a queue whose size only jitters
// stops allocating. Small populations (< kHeapModeLimit) never leave plain
// heap mode — the ladder machinery only engages at the scales where it wins.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "support/check.hpp"

namespace ftbb::sim {

/// Event owner: a simulated node id, or kControlOwner for the control
/// context (fault injection / sampling / pre-run scheduling). Control events
/// order before same-time node events, matching the old kernel where fault
/// schedules were enqueued first and therefore won insertion-order ties.
using OwnerId = std::int32_t;
constexpr OwnerId kControlOwner = -1;

/// A pending event, one cache line. Nodes are arena-owned by the EventQueue
/// that minted them; pointers stay stable across pushes (slabs never move).
struct alignas(64) EventNode {
  double t = 0.0;
  OwnerId src = kControlOwner;  // scheduling context (stamp component 2)
  OwnerId owner = kControlOwner;
  union {
    std::uint64_t seq = 0;  // per-context sequence (stamp component 3)
    EventNode* next_free;   // while recycled: the arena freelist's link
  };
  Callback fn;
};
static_assert(sizeof(EventNode) == 64, "an event node fills one cache line");

/// The canonical stamp order, verbatim from the seed heap: time ascending,
/// then scheduling context (control = -1 first), then per-context sequence.
/// Returns true when `a` dispatches after `b`.
inline bool later_stamp(const EventNode& a, const EventNode& b) {
  if (a.t != b.t) return a.t > b.t;
  if (a.src != b.src) return a.src > b.src;
  return a.seq > b.seq;
}

class EventQueue {
  struct NodeAfter {
    bool operator()(const EventNode* a, const EventNode* b) const {
      return later_stamp(*a, *b);
    }
  };

 public:
  static constexpr std::size_t kBuckets = 128;
  /// Above this population the queue converts from plain heap to ladder.
  static constexpr std::size_t kHeapModeLimit = 2048;
  /// A refill bucket denser than this spawns a finer rung instead of being
  /// heap-sorted wholesale.
  static constexpr std::size_t kSpawnThreshold = 256;
  /// A top band at most this big skips rung building and drops straight
  /// back to heap mode.
  static constexpr std::size_t kDirectDumpLimit = 256;
  static constexpr std::size_t kMaxRungs = 8;
  static constexpr std::size_t kSlabNodes = 1024;
  /// Bucket storage: blocks of 62 node pointers behind a two-word header,
  /// eight cache lines each.
  static constexpr std::size_t kBlockBytes = 512;
  static constexpr std::size_t kBlockEntries = 62;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  /// A move keeps every node and block in its slab, so the pointers stay
  /// valid. The moved-from queue may only be destroyed or assigned to.
  EventQueue(EventQueue&&) = default;
  EventQueue& operator=(EventQueue&&) = default;

  void push(double t, OwnerId src, std::uint64_t seq, OwnerId owner,
            Callback fn) {
    EventNode* node = acquire_node();
    node->t = t;
    node->src = src;
    node->owner = owner;
    node->seq = seq;
    node->fn = std::move(fn);
    ++size_;
    if (heap_mode_) {
      heap_insert(node);
      if (size_ >= kHeapModeLimit && size_ >= convert_floor_) try_convert();
      return;
    }
    route(node);
  }

  /// Earliest pending event, or nullptr when empty. May promote a band into
  /// the active heap; the returned node stays valid until pop()+recycle().
  [[nodiscard]] const EventNode* peek() {
    if (bottom_.empty() && !refill()) return nullptr;
    return bottom_.front();
  }

  /// Removes and returns the earliest event. Caller dispatches `fn` and then
  /// hands the node back via recycle().
  [[nodiscard]] EventNode* pop() {
    if (bottom_.empty() && !refill()) return nullptr;
    std::pop_heap(bottom_.begin(), bottom_.end(), NodeAfter{});
    EventNode* node = bottom_.back();
    bottom_.pop_back();
    --size_;
    // Time must never run backwards. (Full-stamp monotonicity would be too
    // strict: a handler at time t may schedule a same-t event whose context
    // id is lower than an already-dispatched stamp — the seed heap dispatches
    // it next all the same. Stamp order governs co-pending events only, and
    // the differential suite checks that against the seed heap directly.)
    FTBB_CHECK_MSG(node->t >= last_t_, "event queue popped back in time");
    last_t_ = node->t;
    return node;
  }

  /// Returns a dispatched node to the arena (destroys its callback).
  void recycle(EventNode* node) {
    node->fn.reset();
    node->next_free = free_nodes_;
    free_nodes_ = node;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Resident bytes: node slabs, the block pool, and the capacity of the
  /// active heap and the rung array.
  [[nodiscard]] std::size_t memory_bytes() const {
    return node_slabs_.size() * kSlabNodes * sizeof(EventNode) +
           block_count_ * sizeof(Block) +
           bottom_.capacity() * sizeof(EventNode*) +
           rungs_.capacity() * sizeof(Rung);
  }

 private:
  struct alignas(64) Block {
    Block* next = nullptr;  // older block of the chain, or the pool's freelist
    std::size_t count = 0;
    EventNode* items[kBlockEntries];
  };
  static_assert(sizeof(Block) == kBlockBytes);
  /// The block pool's first slab; every later slab adds an eighth of the
  /// pool.
  static constexpr std::size_t kMinBlockSlab = 64;

  /// A band's entries: a chain of blocks whose head is the one being filled,
  /// so only the head is ever partial.
  struct Bucket {
    Block* head = nullptr;
    std::size_t size = 0;
  };

  struct Rung {
    double start = 0.0;
    double width = 0.0;
    std::size_t cur = 0;  // buckets below cur are consumed (and empty)
    std::array<Bucket, kBuckets> buckets{};
  };

  EventNode* acquire_node() {
    if (free_nodes_ == nullptr) {
      node_slabs_.push_back(std::make_unique<EventNode[]>(kSlabNodes));
      EventNode* slab = node_slabs_.back().get();
      for (std::size_t i = 0; i < kSlabNodes; ++i) {
        slab[i].next_free = free_nodes_;
        free_nodes_ = &slab[i];
      }
    }
    EventNode* node = free_nodes_;
    free_nodes_ = node->next_free;
    return node;
  }

  Block* acquire_block() {
    if (free_blocks_ == nullptr) {
      // Geometric growth: a pool whose use jitters around a high water
      // reaches it in a few slabs and then stops allocating.
      const std::size_t n = std::max(kMinBlockSlab, block_count_ / 8);
      block_slabs_.push_back(std::make_unique<Block[]>(n));
      Block* slab = block_slabs_.back().get();
      for (std::size_t i = 0; i < n; ++i) release_block(&slab[i]);
      block_count_ += n;
    }
    Block* block = free_blocks_;
    free_blocks_ = block->next;
    return block;
  }

  void release_block(Block* block) {
    block->next = free_blocks_;
    free_blocks_ = block;
  }

  void bucket_push(Bucket& bucket, EventNode* node) {
    if (bucket.head == nullptr || bucket.head->count == kBlockEntries) {
      Block* block = acquire_block();
      block->next = bucket.head;
      block->count = 0;
      bucket.head = block;
    }
    bucket.head->items[bucket.head->count++] = node;
    ++bucket.size;
  }

  /// Hands every entry of `bucket` to `visit` and empties it. Each block
  /// returns to the pool once read, so `visit` may fill other buckets with
  /// the blocks this one frees.
  template <typename Visit>
  void drain(Bucket& bucket, Visit&& visit) {
    for (Block* block = bucket.head; block != nullptr;) {
      for (std::size_t i = 0; i < block->count; ++i) visit(block->items[i]);
      Block* older = block->next;
      release_block(block);
      block = older;
    }
    bucket = Bucket{};
  }

  void heap_insert(EventNode* node) {
    bottom_.push_back(node);
    std::push_heap(bottom_.begin(), bottom_.end(), NodeAfter{});
  }

  static std::size_t bucket_index(const Rung& r, double t) {
    if (t <= r.start) return 0;
    double idx = (t - r.start) / r.width;
    if (idx >= static_cast<double>(kBuckets)) return kBuckets - 1;
    return static_cast<std::size_t>(idx);
  }

  /// Ladder-mode routing: the far band collects in `top_`; below it, the
  /// coarsest rung whose matching bucket is still unconsumed takes the
  /// event; fully consumed bands fall through to the active heap.
  void route(EventNode* node) {
    if (rungs_.empty() || node->t >= top_start_) {
      top_push(node);
      return;
    }
    for (Rung& r : rungs_) {
      // Below this rung's span: the event precedes every band still pending
      // here (unconsumed buckets hold t >= start + cur*width > t), so it
      // belongs to a finer rung or to the active heap.
      if (node->t < r.start) continue;
      std::size_t idx = bucket_index(r, node->t);
      if (idx < r.cur) continue;  // consumed here; try the finer rung
      bucket_push(r.buckets[idx], node);
      return;
    }
    heap_insert(node);  // inside (or before) the active band
  }

  void top_push(EventNode* node) {
    if (top_.size == 0) {
      top_min_ = top_max_ = node->t;
    } else {
      top_min_ = std::min(top_min_, node->t);
      top_max_ = std::max(top_max_, node->t);
    }
    bucket_push(top_, node);
  }

  /// Heap -> ladder conversion: dump the whole heap into the far band and
  /// let the next refill build rung 0. Fails (with exponential backoff via
  /// convert_floor_) when every event shares one timestamp — a tie storm
  /// has no band structure to exploit and stays a plain heap.
  void try_convert() {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (const EventNode* node : bottom_) {
      lo = std::min(lo, node->t);
      hi = std::max(hi, node->t);
    }
    if (!(hi > lo)) {
      convert_floor_ = size_ * 2;
      return;
    }
    for (EventNode* node : bottom_) top_push(node);
    bottom_.clear();
    // Rungs are built in place and never outnumber kMaxRungs, so reserving
    // them once keeps every refill free of allocation.
    rungs_.reserve(kMaxRungs);
    // With no rungs yet, every push routes to top_ until the first refill
    // builds rung 0 from the collected band.
    heap_mode_ = false;
    convert_floor_ = kHeapModeLimit;
  }

  /// Promotes the next non-empty band into the active heap. Returns false
  /// when the queue is empty.
  bool refill() {
    for (;;) {
      if (!rungs_.empty()) {
        Rung& deepest = rungs_.back();
        while (deepest.cur < kBuckets && deepest.buckets[deepest.cur].size == 0)
          ++deepest.cur;
        if (deepest.cur == kBuckets) {
          rungs_.pop_back();  // every bucket consumed, so no block is left
          continue;
        }
        // Detach the band: its bucket counts as consumed before any push can
        // route to it, and a spawned rung cannot move it.
        Bucket band = std::exchange(deepest.buckets[deepest.cur], Bucket{});
        ++deepest.cur;
        if (band.size > kSpawnThreshold && rungs_.size() < kMaxRungs &&
            spawn_rung(band)) {
          continue;
        }
        load_bottom(band);  // sparse, or a degenerate single-timestamp band
        return true;
      }
      if (top_.size == 0) return false;
      if (top_.size <= kDirectDumpLimit || !(top_max_ > top_min_)) {
        // Too small (or a pure tie storm) to be worth banding: collapse
        // back to plain heap mode.
        load_bottom(top_);
        heap_mode_ = true;
        convert_floor_ =
            (top_max_ > top_min_) ? kHeapModeLimit : bottom_.size() * 2;
        return true;
      }
      build_rung(top_min_, top_max_, top_);
      top_start_ = rungs_.front().start + rungs_.front().width * kBuckets;
    }
  }

  /// Makes `band` the active heap (`bottom_` is empty whenever refill runs)
  /// and empties it. `bottom_` grows by doubling and keeps its capacity, so
  /// band sizes that jitter below its high water cost nothing.
  void load_bottom(Bucket& band) {
    drain(band, [this](EventNode* node) { bottom_.push_back(node); });
    std::make_heap(bottom_.begin(), bottom_.end(), NodeAfter{});
  }

  /// Splits a dense band into a finer rung and empties it. Returns false,
  /// leaving the band as it was, when it is a single timestamp: nothing to
  /// split, so the caller heap-sorts it.
  bool spawn_rung(Bucket& band) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (const Block* block = band.head; block != nullptr; block = block->next) {
      for (std::size_t i = 0; i < block->count; ++i) {
        lo = std::min(lo, block->items[i]->t);
        hi = std::max(hi, block->items[i]->t);
      }
    }
    if (!(hi > lo)) return false;
    build_rung(lo, hi, band);
    return true;
  }

  /// Distributes `band` over a new finest rung spanning [lo, hi] and
  /// empties it.
  void build_rung(double lo, double hi, Bucket& band) {
    Rung& rung = rungs_.emplace_back();
    rung.start = lo;
    rung.width = (hi - lo) / static_cast<double>(kBuckets);
    drain(band, [this, &rung](EventNode* node) {
      bucket_push(rung.buckets[bucket_index(rung, node->t)], node);
    });
  }

  // --- active band ---------------------------------------------------------
  std::vector<EventNode*> bottom_;  // min-heap on the full canonical stamp
  bool heap_mode_ = true;
  std::size_t convert_floor_ = 0;  // tie-storm backoff for try_convert()

  // --- ladder --------------------------------------------------------------
  std::vector<Rung> rungs_;  // [0] coarsest .. back() finest
  Bucket top_;               // far band (t >= top_start_), unsorted
  double top_start_ = std::numeric_limits<double>::infinity();
  double top_min_ = 0.0;
  double top_max_ = 0.0;

  // --- arenas --------------------------------------------------------------
  std::vector<std::unique_ptr<EventNode[]>> node_slabs_;
  EventNode* free_nodes_ = nullptr;
  std::vector<std::unique_ptr<Block[]>> block_slabs_;
  Block* free_blocks_ = nullptr;
  std::size_t block_count_ = 0;  // blocks in all slabs

  // --- bookkeeping ---------------------------------------------------------
  std::size_t size_ = 0;
  double last_t_ = -std::numeric_limits<double>::infinity();
};

}  // namespace ftbb::sim
