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
// Memory: events live in slab-allocated EventNode arenas recycled through a
// freelist (pop -> dispatch -> recycle), so the steady state allocates
// nothing; bucket vectors and retired rungs are pooled the same way. Small
// populations (< kHeapModeLimit) never leave plain heap mode — the ladder
// machinery only engages at the scales where it wins.
#pragma once

#include <algorithm>
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

/// A pending event. Nodes are arena-owned by the EventQueue that minted
/// them; pointers stay stable across pushes (slabs never move).
struct EventNode {
  double t = 0.0;
  OwnerId src = kControlOwner;  // scheduling context (stamp component 2)
  OwnerId owner = kControlOwner;
  std::uint64_t seq = 0;        // per-context sequence (stamp component 3)
  Callback fn;
};

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

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  /// A move keeps every node in its slab, so the pointers stay valid.
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
    free_nodes_.push_back(node);
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Approximate resident bytes: node slabs plus pointer-array capacities.
  [[nodiscard]] std::size_t memory_bytes() const {
    std::size_t bytes = slabs_.size() * kSlabNodes * sizeof(EventNode);
    bytes += (bottom_.capacity() + top_.capacity() + free_nodes_.capacity()) *
             sizeof(EventNode*);
    for (const Rung& r : rungs_) bytes += rung_bytes(r);
    for (const Rung& r : rung_pool_) bytes += rung_bytes(r);
    bytes += scratch_.capacity() * sizeof(EventNode*);
    return bytes;
  }

 private:
  struct Rung {
    double start = 0.0;
    double width = 0.0;
    std::size_t cur = 0;  // buckets below cur are consumed
    std::vector<std::vector<EventNode*>> buckets;
  };

  static std::size_t rung_bytes(const Rung& r) {
    std::size_t bytes = r.buckets.capacity() * sizeof(std::vector<EventNode*>);
    for (const auto& b : r.buckets) bytes += b.capacity() * sizeof(EventNode*);
    return bytes;
  }

  EventNode* acquire_node() {
    if (free_nodes_.empty()) {
      slabs_.push_back(std::make_unique<EventNode[]>(kSlabNodes));
      EventNode* slab = slabs_.back().get();
      free_nodes_.reserve(free_nodes_.size() + kSlabNodes);
      for (std::size_t i = 0; i < kSlabNodes; ++i)
        free_nodes_.push_back(&slab[i]);
    }
    EventNode* node = free_nodes_.back();
    free_nodes_.pop_back();
    return node;
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
      r.buckets[idx].push_back(node);
      return;
    }
    heap_insert(node);  // inside (or before) the active band
  }

  void top_push(EventNode* node) {
    if (top_.empty()) {
      top_min_ = top_max_ = node->t;
    } else {
      top_min_ = std::min(top_min_, node->t);
      top_max_ = std::max(top_max_, node->t);
    }
    top_.push_back(node);
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
    top_.reserve(top_.size() + bottom_.size());
    for (EventNode* node : bottom_) top_push(node);
    bottom_.clear();
    // With no rungs yet, every push routes to top_ until the first refill
    // builds rung 0 from the collected band.
    heap_mode_ = false;
    convert_floor_ = kHeapModeLimit;
  }

  Rung& acquire_rung() {
    if (rung_pool_.empty()) {
      rungs_.emplace_back();
      rungs_.back().buckets.resize(kBuckets);
    } else {
      rungs_.push_back(std::move(rung_pool_.back()));
      rung_pool_.pop_back();
    }
    return rungs_.back();
  }

  /// `assign` into a too-small vector reallocates to the exact element count,
  /// so a band one event larger than the historical maximum would pay a fresh
  /// allocation every time the fluctuation repeats. Reserving double keeps
  /// growth geometric and lets steady-state band sizes jitter for free.
  static void reserve_with_headroom(std::vector<EventNode*>& v,
                                    std::size_t need) {
    if (v.capacity() < need) v.reserve(need * 2);
  }

  void retire_rung() {
    Rung& r = rungs_.back();
    r.cur = 0;
    rung_pool_.push_back(std::move(r));
    rungs_.pop_back();
  }

  /// Promotes the next non-empty band into the active heap. Returns false
  /// when the queue is empty.
  bool refill() {
    for (;;) {
      if (!rungs_.empty()) {
        Rung& deepest = rungs_.back();
        while (deepest.cur < kBuckets && deepest.buckets[deepest.cur].empty())
          ++deepest.cur;
        if (deepest.cur == kBuckets) {
          retire_rung();
          continue;
        }
        // Copy the band's pointers out and clear() the bucket IN PLACE: every
        // vector (bucket slots, scratch_, bottom_) keeps its own capacity for
        // its own role across the rung lifecycle, so steady-state refills and
        // rung rebuilds allocate nothing. (Moving the bucket out instead
        // would shuffle capacities between small child bands and large
        // parent bands and regrow vectors every cycle.)
        std::vector<EventNode*>& bucket = deepest.buckets[deepest.cur];
        if (bucket.size() > kSpawnThreshold && rungs_.size() < kMaxRungs) {
          reserve_with_headroom(scratch_, bucket.size());
          scratch_.assign(bucket.begin(), bucket.end());
          bucket.clear();
          ++deepest.cur;  // consumed before any re-route can see it
          // NOTE: spawn_rung may grow rungs_, so `deepest`/`bucket` are dead.
          if (spawn_rung(scratch_)) continue;
          bottom_.swap(scratch_);  // degenerate single-timestamp band
        } else {
          reserve_with_headroom(bottom_, bucket.size());
          bottom_.assign(bucket.begin(), bucket.end());
          bucket.clear();
          ++deepest.cur;
        }
        std::make_heap(bottom_.begin(), bottom_.end(), NodeAfter{});
        return true;
      }
      if (top_.empty()) return false;
      if (top_.size() <= kDirectDumpLimit || !(top_max_ > top_min_)) {
        // Too small (or a pure tie storm) to be worth banding: collapse
        // back to plain heap mode.
        bottom_.swap(top_);
        std::make_heap(bottom_.begin(), bottom_.end(), NodeAfter{});
        top_.clear();
        heap_mode_ = true;
        convert_floor_ =
            (top_max_ > top_min_) ? kHeapModeLimit : bottom_.size() * 2;
        return true;
      }
      build_rung(top_min_, top_max_, top_);
      top_start_ = rungs_.front().start + rungs_.front().width * kBuckets;
      top_.clear();
    }
  }

  /// Splits a dense band into a finer rung. Returns false when the band is
  /// a single timestamp (nothing to split — caller heap-sorts it).
  bool spawn_rung(std::vector<EventNode*>& band) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (const EventNode* node : band) {
      lo = std::min(lo, node->t);
      hi = std::max(hi, node->t);
    }
    if (!(hi > lo)) return false;
    build_rung(lo, hi, band);
    band.clear();  // caller's scratch buffer; capacity stays with the caller
    return true;
  }

  void build_rung(double lo, double hi, std::vector<EventNode*>& nodes) {
    Rung& rung = acquire_rung();  // becomes rungs_.back()
    rung.start = lo;
    rung.width = (hi - lo) / static_cast<double>(kBuckets);
    rung.cur = 0;
    for (EventNode* node : nodes)
      rung.buckets[bucket_index(rung, node->t)].push_back(node);
  }

  // --- active band ---------------------------------------------------------
  std::vector<EventNode*> bottom_;  // min-heap on the full canonical stamp
  bool heap_mode_ = true;
  std::size_t convert_floor_ = 0;  // tie-storm backoff for try_convert()

  // --- ladder --------------------------------------------------------------
  std::vector<Rung> rungs_;      // [0] coarsest .. back() finest
  std::vector<Rung> rung_pool_;  // retired rungs, bucket capacity preserved
  std::vector<EventNode*> scratch_;  // band staging for spawn_rung
  std::vector<EventNode*> top_;  // far band (t >= top_start_), unsorted
  double top_start_ = std::numeric_limits<double>::infinity();
  double top_min_ = 0.0;
  double top_max_ = 0.0;

  // --- arena ---------------------------------------------------------------
  std::vector<std::unique_ptr<EventNode[]>> slabs_;
  std::vector<EventNode*> free_nodes_;

  // --- bookkeeping ---------------------------------------------------------
  std::size_t size_ = 0;
  double last_t_ = -std::numeric_limits<double>::infinity();
};

}  // namespace ftbb::sim
