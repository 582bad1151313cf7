// Differential test: the ladder EventQueue against the verbatim seed binary
// heap (bench/legacy_event_queue.hpp).
//
// Every golden ScenarioReport fingerprint depends on the kernel's exact
// dispatch order, so the ladder rewrite must be order-identical — not merely
// "sorted by time" but identical through every (t, src, seq) tie-break. The
// tests drive both queues with the same interleaved schedule/pop/run-to-
// limit streams — wide-uniform times, microscopic deltas, exact duplicate
// timestamps (dense tie storms that only src/seq discriminate), far-future
// spikes, and handler-style re-schedules at the current dispatch time — and
// assert the two pop sequences match event for event. The interleaved
// stream also runs with a peek after every pop, the executors' prefetch
// order.
//
// The second half instruments the global allocator and asserts the
// InlineCallback small-buffer contract: once warm, schedule+dispatch of
// inline-sized callbacks performs ZERO heap allocations per event, and
// overflow-sized callbacks recycle through the thread-local block pool
// instead of malloc.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "bench/legacy_event_queue.hpp"
#include "sim/event_queue.hpp"
#include "support/rng.hpp"

// --- instrumented global allocator (this test binary only) -----------------
//
// The aligned forms count too: the queue's line-aligned slabs go through
// them. Every replacement stays out of line. Inlined into a container, the
// malloc/free inside them meets the library's delete/new on the other side
// of the allocation and GCC reports a mismatched pair
// (-Wmismatched-new-delete).

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size, std::align_val_t align) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (a <= alignof(std::max_align_t)) return std::malloc(size);
  return std::aligned_alloc(a, (std::max<std::size_t>(size, 1) + a - 1) / a * a);
}

constexpr std::align_val_t kDefaultAlign{alignof(std::max_align_t)};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size, kDefaultAlign)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, kDefaultAlign);
}

[[gnu::noinline]] void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_alloc(size, align)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new(std::size_t size, std::align_val_t align,
                                     const std::nothrow_t&) noexcept {
  return counted_alloc(size, align);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ftbb::sim {
namespace {

using bench::LegacyEventQueue;

/// Mirror driver: applies one identical operation stream to the ladder queue
/// and the seed heap, checking pop-order identity as it goes. Times are
/// drawn >= the last dispatched time, like every kernel schedule() call.
struct QueuePair {
  EventQueue ladder;
  LegacyEventQueue legacy;
  std::vector<std::uint64_t> ladder_log;
  std::vector<std::uint64_t> legacy_log;
  std::uint64_t next_id = 0;
  std::uint64_t next_seq = 0;
  double now = 0.0;
  double last_t = 0.0;  // most recently scheduled time (tie-storm anchor)
  /// Peek the ladder right after each pop, before the popped event's
  /// callback runs and before any push that follows it, as the executors'
  /// dispatch loop does to prefetch the next event. The peek can promote the
  /// next band into the active heap ahead of those pushes.
  bool peek_after_pop = false;

  void push(double t, OwnerId src, OwnerId owner) {
    const std::uint64_t id = next_id++;
    const std::uint64_t seq = next_seq++;
    last_t = t;
    ladder.push(t, src, seq, owner,
                [this, id]() { ladder_log.push_back(id); });
    legacy.push(t, src, seq, owner,
                [this, id]() { legacy_log.push_back(id); });
  }

  /// Pops one event from both queues, runs both callbacks, and checks the
  /// dispatched ids match. Returns false when both queues are empty.
  bool pop_one() {
    EXPECT_EQ(ladder.empty(), legacy.empty());
    if (ladder.empty()) return false;
    EventNode* a = ladder.pop();
    if (peek_after_pop) (void)ladder.peek();
    LegacyEventQueue::Event b = legacy.pop();
    EXPECT_EQ(a->t, b.t);
    EXPECT_EQ(a->src, b.src);
    EXPECT_EQ(a->seq, b.seq);
    EXPECT_EQ(a->owner, b.owner);
    now = a->t;
    a->fn();
    b.fn();
    ladder.recycle(a);
    EXPECT_EQ(ladder_log.back(), legacy_log.back());
    return true;
  }

  void drain() {
    while (pop_one()) {
    }
  }
};

/// One randomized schedule draw mixing the regimes a real kernel produces.
double draw_time(support::Rng& rng, const QueuePair& q) {
  const double dice = rng.uniform();
  if (dice < 0.30) return q.now + rng.uniform(0.0, 50.0);     // wide band
  if (dice < 0.50) return q.now + rng.uniform(0.0, 1e-6);     // dense near-now
  if (dice < 0.75) return std::max(q.last_t, q.now);          // exact tie storm
  if (dice < 0.90) return q.now + rng.uniform(0.0, 1.5);      // typical latency
  return q.now + rng.uniform(500.0, 5000.0);                  // far-future spike
}

class EventQueueDiff : public ::testing::TestWithParam<std::uint64_t> {};

/// One randomized interleaved stream of pushes, pops, handler-style bursts
/// and runs to a limit, mirrored into both queues of `q`.
void run_interleaved_stream(std::uint64_t seed, QueuePair& q) {
  support::Rng rng(seed);
  for (int step = 0; step < 60000; ++step) {
    const double dice = rng.uniform();
    if (q.ladder.empty() || dice < 0.52) {
      // src mixes control (-1) with a few node contexts so equal-time events
      // exercise the src-then-seq tie-break, not just seq.
      const auto src = static_cast<OwnerId>(rng.range(-1, 6));
      const auto owner = static_cast<OwnerId>(rng.range(0, 15));
      q.push(draw_time(rng, q), src, owner);
    } else if (dice < 0.80) {
      q.pop_one();
    } else if (dice < 0.92) {
      // Handler-style burst: dispatch a few events, re-scheduling at or just
      // above the dispatch time — pushes into the queue's active band.
      for (int burst = 0; burst < 32 && q.pop_one(); ++burst) {
        if (rng.chance(0.5)) {
          q.push(q.now + rng.uniform(0.0, 1e-9),
                 static_cast<OwnerId>(rng.range(-1, 2)), 0);
        }
      }
    } else {
      // Run-to-limit: drain everything below a horizon.
      const double limit = q.now + rng.uniform(0.0, 100.0);
      while (const EventNode* head = q.ladder.peek()) {
        if (head->t > limit) break;
        q.pop_one();
      }
    }
  }
  q.drain();
}

TEST_P(EventQueueDiff, InterleavedStreamIsOrderIdentical) {
  for (const bool peek_after_pop : {false, true}) {
    SCOPED_TRACE(peek_after_pop ? "peek after every pop" : "no extra peek");
    QueuePair q;
    q.peek_after_pop = peek_after_pop;
    run_interleaved_stream(GetParam(), q);
    EXPECT_EQ(q.ladder_log, q.legacy_log);
    EXPECT_EQ(q.ladder_log.size(), q.next_id);
  }
}

TEST_P(EventQueueDiff, BulkLoadThenFullDrainMatches) {
  // Ladder conversion stress: one huge prefill (far beyond kHeapModeLimit,
  // with heavy duplicate-t clusters), then a full ordered drain.
  support::Rng rng(support::mix64(GetParam(), 0xB1C));
  QueuePair q;
  double cluster_t = 0.0;
  for (int i = 0; i < 120000; ++i) {
    if (i % 64 == 0) cluster_t = rng.uniform(0.0, 1e4);
    const double t = rng.chance(0.35) ? cluster_t : rng.uniform(0.0, 1e4);
    q.push(t, static_cast<OwnerId>(rng.range(-1, 3)),
           static_cast<OwnerId>(rng.range(0, 7)));
  }
  q.drain();
  EXPECT_EQ(q.ladder_log, q.legacy_log);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueDiff,
                         ::testing::Values(0x5EED0001ULL, 0x5EED0002ULL,
                                           0x5EED0003ULL, 0x5EED0004ULL));

TEST(EventQueueAlloc, InlineCallbacksAreAllocationFreeInSteadyState) {
  EventQueue q;
  std::uint64_t sink = 0;
  std::uint64_t seq = 0;
  support::Rng rng(0xA110C);
  double now = 0.0;
  const auto churn = [&](std::size_t ops) {
    for (std::size_t i = 0; i < ops; ++i) {
      EventNode* ev = q.pop();
      ASSERT_NE(ev, nullptr);
      now = ev->t;
      ev->fn();
      q.recycle(ev);
      // 24-byte capture — inside the 32-byte inline buffer.
      q.push(now + rng.uniform(0.0, 10.0), 0, seq++, 0,
             [&sink, a = seq, b = now]() { sink += a + static_cast<std::uint64_t>(b); });
    }
  };
  // Prefill past the ladder-conversion threshold over the SAME horizon the
  // churn schedules into (now + U[0,10)), so the pending-set geometry is
  // stationary: rung spans, bucket occupancies, and band sizes fluctuate
  // around fixed means and every slab, rung, and bucket vector converges to
  // its steady-state capacity during warm-up. (A prefill over a much wider
  // span would leave a thinning tail of far-future events that keeps
  // changing the reband geometry for the whole run — a perpetual transient,
  // not a steady state.)
  for (int i = 0; i < 100000; ++i) {
    q.push(rng.uniform(0.0, 10.0), 0, seq++, 0, [&sink]() { ++sink; });
  }
  churn(300000);

  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  churn(100000);
  const std::uint64_t allocs_after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(allocs_after - allocs_before, 0u)
      << "steady-state schedule/dispatch of inline-sized callbacks must not "
         "touch the heap";
  EXPECT_GT(sink, 0u);
}

TEST(EventQueueAlloc, OversizedCallbacksRecycleThroughBlockPool) {
  // A capture bigger than the 32-byte inline buffer spills into a pooled
  // 128-byte block; after warm-up the freelist serves every spill, so the
  // steady state stays malloc-free even for overflow callbacks.
  EventQueue q;
  std::uint64_t sink = 0;
  std::uint64_t seq = 0;
  support::Rng rng(0xB10C);
  double now = 0.0;
  struct Fat {
    std::uint64_t words[12];  // 96 bytes: overflow, but within one block
  };
  const auto churn = [&](std::size_t ops) {
    for (std::size_t i = 0; i < ops; ++i) {
      EventNode* ev = q.pop();
      ASSERT_NE(ev, nullptr);
      now = ev->t;
      ev->fn();
      q.recycle(ev);
      Fat fat{};
      fat.words[0] = seq;
      q.push(now + rng.uniform(0.0, 10.0), 0, seq++, 0,
             [&sink, fat]() { sink += fat.words[0]; });
    }
  };
  // Stationary prefill horizon (see the inline test above for why). The
  // smaller population needs proportionally more warm-up laps for every
  // bucket vector to see its long-run occupancy maximum.
  for (int i = 0; i < 5000; ++i) {
    q.push(rng.uniform(0.0, 10.0), 0, seq++, 0, [&sink]() { ++sink; });
  }
  churn(80000);

  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  churn(20000);
  const std::uint64_t allocs_after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(allocs_after - allocs_before, 0u)
      << "warm overflow callbacks must come from the thread-local block pool";
}

TEST(EventQueueMemory, HoldsWhatIsPendingNotEachBandsHighWater) {
  // A burst over many bands, drained to a remnant, and a second burst into
  // later bands. Consumed buckets keep no storage, so the queue holds what
  // its pending events need: their nodes, full blocks of their pointers, at
  // most one partial block per bucket (a rung's or the far band's), and a
  // little for the active heap and the rung array.
  EventQueue q;
  std::uint64_t seq = 0;
  support::Rng rng(0xB0057);
  std::size_t peak = 0;
  const auto burst = [&](double from) {
    for (int i = 0; i < 100000; ++i) {
      q.push(from + rng.uniform(0.0, 100.0), 0, seq++, 0, [] {});
    }
    peak = std::max(peak, q.size());
  };
  burst(0.0);
  while (q.size() > 1000) q.recycle(q.pop());
  burst(200.0);

  const std::size_t slabs =
      (peak + EventQueue::kSlabNodes - 1) / EventQueue::kSlabNodes;
  const std::size_t full_blocks =
      (q.size() + EventQueue::kBlockEntries - 1) / EventQueue::kBlockEntries;
  const std::size_t buckets = EventQueue::kMaxRungs * EventQueue::kBuckets + 1;
  constexpr std::size_t kHeapAndRungs = 64 * 1024;
  EXPECT_LE(q.memory_bytes(),
            slabs * EventQueue::kSlabNodes * sizeof(EventNode) +
                (full_blocks + buckets) * EventQueue::kBlockBytes + kHeapAndRungs);
  while (!q.empty()) q.recycle(q.pop());
}

}  // namespace
}  // namespace ftbb::sim
