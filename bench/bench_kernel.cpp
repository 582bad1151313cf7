// Microbenchmark: the event engine's data plane — ladder EventQueue with
// InlineCallback versus the seed binary heap with std::function — at
// 10^4 … 10^7 pending events. Writes BENCH_kernel.json.
//
// Two workloads per (queue, population):
//
//   * schedule_dispatch: the kernel's steady state. Hold the population
//     constant and, per operation, pop the earliest event, run it, and
//     schedule a replacement at now + exp-ish offset. On the seed heap this
//     is O(log n) sift per op plus a malloc/free pair per std::function; on
//     the ladder it is O(1) amortized band append plus zero allocations for
//     inline-sized captures. The target is that this curve is flat (O(1))
//     across 10^4..10^7 while the heap's drifts up with log n.
//   * bytes/event and allocs/event: global operator new/delete are
//     instrumented in this binary; prefill measures bytes per pending event
//     (node + callback storage), the warm churn window measures allocations
//     per schedule+dispatch cycle (the inline SBO contract says 0 for the
//     ladder). memory_bytes is the queue's own count of what it holds:
//     for the ladder, its node slabs, its pointer-block pool, the active
//     heap and the rung array.
//
// A third workload, cold-owner dispatch, runs the whole sequential kernel
// on 10^5 owners, one array of 1,024-byte objects (16 cache lines, the size
// of a simulated host), each starting on a cache line, with 10^5 events
// pending. Each event writes its owner's first six lines and
// schedules one event to a random owner, so every dispatch reaches an
// object far outside the cache. It runs without and with the array
// registered with the kernel (Kernel::set_owner_objects), which makes
// dispatch prefetch the next event's object while the current one runs;
// the ratio is what that prefetch buys when owner memory is cold.
//
// `--smoke` runs 10^4..10^5 only with short windows. Throughput is reported,
// not asserted, but the binary exits nonzero if the ladder's or the
// cold-owner kernel's warm-churn allocs/event is not exactly 0 (the CI
// perf-smoke job gates on that).
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <vector>

#include "bench/bench_timing.hpp"
#include "bench/legacy_event_queue.hpp"
#include "sim/event_queue.hpp"
#include "sim/kernel.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

// --- instrumented global allocator (this binary only) -----------------------
//
// The aligned forms count too: the queue's line-aligned node and block slabs
// go through them. Every replacement stays out of line. Inlined into a
// container, the malloc/free inside them meets the library's delete/new on
// the other side of the allocation and GCC reports a mismatched pair
// (-Wmismatched-new-delete).

namespace {
std::uint64_t g_alloc_calls = 0;
std::uint64_t g_alloc_bytes = 0;

void* counted_alloc(std::size_t size, std::align_val_t align) noexcept {
  ++g_alloc_calls;
  g_alloc_bytes += size;
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

namespace {

using namespace ftbb;
using bench::LegacyEventQueue;
using bench::measure;
using sim::EventNode;
using sim::EventQueue;
using sim::OwnerId;

/// The capture every hot-path closure resembles: a couple of pointers and a
/// few words of state — 24 bytes, inside InlineCallback's 32-byte buffer and
/// outside std::function's ~16-byte SBO, so the seed heap pays a malloc per
/// schedule and the ladder pays none.
struct HotCapture {
  std::uint64_t* sink;
  std::uint64_t a;
  double b;
  void operator()() const { *sink += a + static_cast<std::uint64_t>(b); }
};

/// Drives either queue through the same hold-population churn. The two
/// specializations differ only in how an event is popped/recycled.
struct LadderDriver {
  EventQueue q;
  double now = 0.0;
  void push(double t, std::uint64_t seq, HotCapture cb) {
    q.push(t, static_cast<OwnerId>(seq % 7), seq, 0, cb);
  }
  void step(std::uint64_t seq, support::Rng& rng, std::uint64_t* sink) {
    EventNode* ev = q.pop();
    now = ev->t;
    ev->fn();
    q.recycle(ev);
    push(now + rng.uniform(0.0, 10.0), seq, HotCapture{sink, seq, now});
  }
  [[nodiscard]] std::size_t memory_bytes() const { return q.memory_bytes(); }
};

struct HeapDriver {
  LegacyEventQueue q;
  double now = 0.0;
  void push(double t, std::uint64_t seq, HotCapture cb) {
    q.push(t, static_cast<OwnerId>(seq % 7), seq, 0, cb);
  }
  void step(std::uint64_t seq, support::Rng& rng, std::uint64_t* sink) {
    LegacyEventQueue::Event ev = q.pop();
    now = ev.t;
    ev.fn();
    push(now + rng.uniform(0.0, 10.0), seq, HotCapture{sink, seq, now});
  }
  [[nodiscard]] std::size_t memory_bytes() const { return q.memory_bytes(); }
};

struct QueueResult {
  const char* queue = nullptr;
  double ops_per_sec = 0.0;
  double bytes_per_event = 0.0;   // storage bytes per pending event at prefill
  double allocs_per_event = 0.0;  // warm-churn mallocs per schedule+dispatch
  std::size_t memory_bytes = 0;   // queue-visible structure bytes
};

template <typename Driver>
QueueResult run_queue(const char* name, std::size_t n, double window) {
  Driver d;
  support::Rng rng(0xC0FFEE);
  std::uint64_t sink = 0;
  std::uint64_t seq = 0;

  const std::uint64_t bytes_before = g_alloc_bytes;
  // Prefill over the SAME horizon the churn schedules into (now + U[0,10)) so
  // the pending-set geometry is stationary — rung spans and the block pool
  // converge during warm-up instead of chasing a thinning tail of
  // far-future prefill events for the whole run.
  for (std::size_t i = 0; i < n; ++i) {
    d.push(rng.uniform(0.0, 10.0), seq, HotCapture{&sink, seq, 0.0});
    ++seq;
  }
  const double bytes_per_event =
      static_cast<double>(g_alloc_bytes - bytes_before) /
      static_cast<double>(n);

  // Warm up: cycle the full population (with a floor, so small populations
  // still see enough reband cycles) so slabs, rungs, the block pool, and
  // (for the heap) the allocator's size classes reach steady state.
  const std::uint64_t warm_ops = std::max<std::uint64_t>(n, 200000);
  for (std::uint64_t i = 0; i < warm_ops; ++i) d.step(seq++, rng, &sink);

  // One churn window of 2n ops, right after the warm-up.
  const std::uint64_t churn_ops = 2 * n;
  const std::uint64_t allocs_before = g_alloc_calls;
  for (std::uint64_t i = 0; i < churn_ops; ++i) d.step(seq++, rng, &sink);
  QueueResult r;
  r.queue = name;
  r.allocs_per_event = static_cast<double>(g_alloc_calls - allocs_before) /
                       static_cast<double>(churn_ops);

  r.ops_per_sec = measure(window, 1.0, [&] { d.step(seq++, rng, &sink); });
  if (sink == 0xFFFFFFFFFFFFFFFFULL) std::printf("x");  // keep sink live

  r.bytes_per_event = bytes_per_event;
  r.memory_bytes = d.memory_bytes();
  return r;
}

/// One simulated host's worth of owner memory, starting on a cache line
/// like a host does.
struct alignas(64) ColdOwner {
  unsigned char bytes[1024];
};

struct ColdOwnerKernel {
  static constexpr std::size_t kOwners = 100000;
  static constexpr std::size_t kLines = 6;

  std::vector<ColdOwner> owners = std::vector<ColdOwner>(kOwners);
  sim::Kernel kernel;
  support::Rng rng{0xC01D};

  /// Writes the owner's first lines, then schedules one event to a random
  /// owner. Like a message delivery it carries its owner's address; 16
  /// bytes of capture, inline.
  struct Touch {
    ColdOwnerKernel* bench;
    ColdOwner* owner;
    void operator()() const {
      for (std::size_t line = 0; line < kLines; ++line) ++owner->bytes[line * 64];
      bench->schedule();
    }
  };

  void schedule() {
    const std::size_t to = rng.below(kOwners);
    kernel.at(kernel.now() + rng.uniform(0.0, 10.0), static_cast<sim::OwnerId>(to),
              Touch{this, &owners[to]});
  }

  /// Runs `events` events (the kernel stops at its event limit and resumes
  /// on the next call).
  void run(std::uint64_t events) {
    kernel.run(std::numeric_limits<double>::infinity(), events);
  }
};

struct ColdOwnerResult {
  double events_per_sec = 0.0;
  double allocs_per_event = 0.0;
};

ColdOwnerResult run_cold_owners(bool registered, double window) {
  ColdOwnerKernel b;
  if (registered) {
    b.kernel.set_owner_objects(b.owners.data(), sizeof(ColdOwner), b.owners.size());
  }
  for (std::size_t i = 0; i < ColdOwnerKernel::kOwners; ++i) b.schedule();
  constexpr std::uint64_t kBatch = 1000;
  b.run(2 * ColdOwnerKernel::kOwners);  // warm-up: slabs, rungs, buckets
  const std::uint64_t allocs_before = g_alloc_calls;
  b.run(2 * ColdOwnerKernel::kOwners);
  ColdOwnerResult r;
  r.allocs_per_event = static_cast<double>(g_alloc_calls - allocs_before) /
                       static_cast<double>(2 * ColdOwnerKernel::kOwners);
  r.events_per_sec =
      measure(window, static_cast<double>(kBatch), [&] { b.run(kBatch); });
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const double window = smoke ? 0.05 : 0.5;
  std::vector<std::size_t> sizes = {10000, 100000};
  if (!smoke) {
    sizes.push_back(1000000);
    sizes.push_back(10000000);
  }
  std::printf("kernel microbench: ladder+InlineCallback vs seed "
              "heap+std::function%s\n\n",
              smoke ? " [smoke]" : "");

  struct SizeResult {
    std::size_t pending;
    QueueResult heap;
    QueueResult ladder;
  };
  std::vector<SizeResult> all;
  for (const std::size_t n : sizes) {
    SizeResult sr{n,
                  run_queue<HeapDriver>("heap", n, window),
                  run_queue<LadderDriver>("ladder", n, window)};
    all.push_back(sr);
  }

  support::TextTable table({"pending", "queue", "sched+disp (ev/s)",
                            "bytes/event", "allocs/event", "speedup"});
  for (const SizeResult& sr : all) {
    for (const QueueResult* r : {&sr.heap, &sr.ladder}) {
      table.row({support::TextTable::num(static_cast<double>(sr.pending), 0),
                 r->queue, support::TextTable::num(r->ops_per_sec, 0),
                 support::TextTable::num(r->bytes_per_event, 1),
                 support::TextTable::num(r->allocs_per_event, 3),
                 r == &sr.ladder
                     ? support::TextTable::num(
                           sr.ladder.ops_per_sec / sr.heap.ops_per_sec, 2)
                     : std::string("-")});
    }
  }
  std::printf("%s\n", table.render().c_str());

  // Cold owners: alternate the two kernels so host noise hits both alike,
  // and report each side's median.
  const int cold_reps = smoke ? 1 : 5;
  std::vector<ColdOwnerResult> plain;
  std::vector<ColdOwnerResult> registered;
  for (int rep = 0; rep < cold_reps; ++rep) {
    plain.push_back(run_cold_owners(false, window));
    registered.push_back(run_cold_owners(true, window));
  }
  const auto median_rate = [](std::vector<ColdOwnerResult> runs) {
    std::sort(runs.begin(), runs.end(),
              [](const ColdOwnerResult& a, const ColdOwnerResult& b) {
                return a.events_per_sec < b.events_per_sec;
              });
    return runs[runs.size() / 2].events_per_sec;
  };
  double cold_allocs = 0.0;
  for (const auto* runs : {&plain, &registered}) {
    for (const ColdOwnerResult& r : *runs) {
      cold_allocs = std::max(cold_allocs, r.allocs_per_event);
    }
  }
  const double plain_rate = median_rate(plain);
  const double registered_rate = median_rate(registered);
  support::TextTable cold({"owners x bytes", "pending", "owner objects",
                           "dispatch (ev/s)", "allocs/event", "speedup"});
  cold.row({"100000 x 1024", "100000", "none",
            support::TextTable::num(plain_rate, 0),
            support::TextTable::num(cold_allocs, 3), "-"});
  cold.row({"100000 x 1024", "100000", "registered",
            support::TextTable::num(registered_rate, 0),
            support::TextTable::num(cold_allocs, 3),
            support::TextTable::num(registered_rate / plain_rate, 2)});
  std::printf("cold-owner dispatch, sequential kernel (median of %d):\n%s\n",
              cold_reps, cold.render().c_str());

  FILE* json = bench::open_bench_json("BENCH_kernel.json", "kernel");
  if (json == nullptr) return 1;
  std::fprintf(json, "  \"smoke\": %s,\n  \"sizes\": [\n",
               smoke ? "true" : "false");
  for (std::size_t s = 0; s < all.size(); ++s) {
    const SizeResult& sr = all[s];
    std::fprintf(json, "    {\"pending\": %zu, \"queues\": [\n", sr.pending);
    for (const QueueResult* r : {&sr.heap, &sr.ladder}) {
      std::fprintf(
          json,
          "      {\"queue\": \"%s\", \"schedule_dispatch_per_sec\": %.0f, "
          "\"bytes_per_event\": %.1f, \"allocs_per_event\": %.4f, "
          "\"memory_bytes\": %zu}%s\n",
          r->queue, r->ops_per_sec, r->bytes_per_event, r->allocs_per_event,
          r->memory_bytes, r == &sr.heap ? "," : "");
    }
    std::fprintf(json, "    ]}%s\n", s + 1 < all.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json,
               "  \"cold_owner_dispatch\": {\"owners\": %zu, \"object_bytes\": %zu, "
               "\"pending\": %zu, \"repetitions\": %d, "
               "\"plain_per_sec\": %.0f, \"registered_per_sec\": %.0f, "
               "\"speedup\": %.3f, \"allocs_per_event\": %.4f}\n}\n",
               ColdOwnerKernel::kOwners, sizeof(ColdOwner), ColdOwnerKernel::kOwners,
               cold_reps, plain_rate, registered_rate, registered_rate / plain_rate,
               cold_allocs);
  std::fclose(json);
  std::printf("wrote BENCH_kernel.json\n");

  // Gate: the ladder's and the cold-owner kernel's steady-state
  // schedule+dispatch must be allocation-free.
  int rc = 0;
  for (const SizeResult& sr : all) {
    if (sr.ladder.allocs_per_event != 0.0) {
      std::fprintf(stderr, "GATE FAIL: ladder allocates %g/event at %zu pending (expected 0)\n",
                   sr.ladder.allocs_per_event, sr.pending);
      rc = 1;
    }
  }
  if (cold_allocs != 0.0) {
    std::fprintf(stderr, "GATE FAIL: cold-owner kernel allocates %.4f/event (expected 0)\n",
                 cold_allocs);
    rc = 1;
  }
  return rc;
}
