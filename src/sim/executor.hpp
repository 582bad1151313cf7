// Event-loop policy of the discrete-event kernel (the Parsec substitute).
//
// The kernel used to be one class with one hard-wired dispatch loop; this
// header extracts the loop into an EventExecutor so the same simulation code
// can run single-threaded (SequentialExecutor) or sharded across OS threads
// (ShardedExecutor) with *bit-identical* results.
//
// Determinism model. Every event carries a stamp
//
//     (time, scheduling context, per-context sequence number)
//
// assigned at schedule() time, and every executor dispatches events in the
// total order of these stamps. The scheduling context is the owner of the
// event being executed when schedule() is called (kControlOwner outside the
// run loop), and the sequence counter is per-context, so the stamp does not
// depend on how events are interleaved across shards or on the thread
// count: a context's handlers always run in the same relative order, hence
// issue the same stamps, in every execution. This fixed point is what makes
// ScenarioReport fingerprints identical between the sequential kernel and
// any sharded configuration.
//
// Sharding model (conservative lookahead, Chandy–Misra–Bryant style).
// Events are owned by a node; node n executes on shard n % threads (or on
// the shard its configured affinity key selects). Nodes only influence each
// other through cross-node events scheduled at least the link's lookahead in
// the future (the minimum network latency of that channel), so every shard
// may safely run ahead to its own window end
//
//     w_s = min( next control event,
//                min over all shards o of head(o) + closure(o -> s) )
//
// where head(o) is o's earliest pending event at the barrier and closure is
// the transitive closure (all-pairs shortest hop-chain) of the pair
// lookahead matrix, with the diagonal relaxed to the cheapest round trip
// through other shards. Any influence that could still reach s starts from
// some shard's queued event and pays at least the shortest chain of link
// floors to arrive — including the case where a fast shard first *wakes* an
// idle one whose reply would come back — so it lands at or after w_s, and
// nothing dispatched inside a window can be observed by another shard
// mid-window. With one latency class and all shards busy this degenerates
// to the classic single window [T, T + lookahead); with a hierarchical
// topology (ChannelLookahead below) shards separated by slow links run far
// ahead of each other. Cross-shard
// schedules land in a mailbox and are merged into the destination heap at
// the next epoch barrier — before any event of their window can run — with
// the canonical stamp order deciding ties. kControlOwner events (fault
// injection, storage sampling, anything scheduled from outside the run
// loop) always execute at a barrier, with every shard quiescent, so they
// may touch cross-node state exactly like they did on the single-threaded
// kernel.
//
// Dispatch body. Both executors run one event the same way: pop it, peek
// the event after it, prefetch that event's owner object and its spilled
// closure block, then run the popped event. Owner objects are registered
// with set_owner_objects as one array, so an object's address is arithmetic
// on its node id: nothing is looked up. At 10^5 simulated workers each
// event reaches a host the cache does not hold, and this way the next
// host's lines load while the current event runs. Peeking right after the
// pop can promote the next band of the ladder queue into its active heap
// before the handler schedules into it; the queue orders the same either
// way, and a prefetch changes no result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/event_queue.hpp"  // Callback, OwnerId, kControlOwner, EventQueue

namespace ftbb::sim {

// The event data plane lives in two sibling headers:
//   - sim/callback.hpp   : Callback (InlineCallback) — the move-only,
//     small-buffer-optimized event closure; zero allocations for captures
//     up to 32 bytes, pooled 128-byte blocks beyond.
//   - sim/event_queue.hpp: OwnerId / kControlOwner, the canonical stamp
//     order, and the ladder EventQueue both executors dispatch from.

/// Optional per-channel refinement of the global lookahead: nodes belong to
/// latency groups (racks, in the hierarchical network model) and the matrix
/// gives the guaranteed minimum latency of any cross-node event from a node
/// of group a to a node of group b. Every entry must be >= the global
/// `lookahead`; the sharded executor uses the matrix to widen per-shard
/// windows, never to narrow the safety check below the per-pair floor.
struct ChannelLookahead {
  std::uint32_t groups = 0;
  std::vector<std::uint32_t> group_of;  // group id per node; empty = one class
  std::vector<double> min_latency;      // groups x groups, row-major [from][to]

  [[nodiscard]] bool enabled(std::uint32_t nodes) const {
    return groups > 1 && group_of.size() == nodes &&
           min_latency.size() == static_cast<std::size_t>(groups) * groups;
  }
};

struct ExecutorConfig {
  /// Dispatch threads. <= 1, or a non-positive lookahead, selects the
  /// sequential executor; the canonical order makes the choice invisible to
  /// results either way.
  std::uint32_t threads = 1;
  /// Number of simulated nodes (owner ids are in [0, nodes)). The sharded
  /// executor sizes its per-context sequence counters from this; the
  /// sequential executor grows them on demand.
  std::uint32_t nodes = 0;
  /// Minimum virtual-time distance of any cross-node event (the minimum
  /// network link latency). Must be > 0 to shard.
  double lookahead = 0.0;
  /// Optional per-channel lookahead (see above). Ignored when it does not
  /// describe exactly `nodes` nodes.
  ChannelLookahead channels;
  /// Optional shard affinity key per node: node n executes on shard
  /// shard_of[n] % shard_count (empty: n % shard_count). Lets callers
  /// co-locate nodes that exchange low-latency traffic; any map yields
  /// identical results, only dispatch parallelism differs.
  std::vector<std::uint32_t> shard_of;
};

struct RunResult {
  std::uint64_t events = 0;
  bool drained = false;       // queue emptied
  bool hit_time_limit = false;
  bool hit_event_limit = false;
};

/// The cache line size dispatch's prefetch hints step by.
inline constexpr std::size_t kCacheLineBytes = 64;
/// The leading bytes of a registered owner object that dispatch prefetches
/// ahead of the object's next event: six cache lines, exactly the object's
/// first six when it starts on a line. An owner whose hot fields lead its
/// object ties its layout to this span (SimCluster's WorkerHost does, with a
/// static_assert).
inline constexpr std::size_t kOwnerPrefetchBytes = 6 * kCacheLineBytes;

/// The owner objects registered with EventExecutor::set_owner_objects
/// (none: count 0).
struct OwnerObjects {
  const unsigned char* first = nullptr;
  std::size_t stride = 0;
  std::size_t count = 0;
};

class EventExecutor {
 public:
  virtual ~EventExecutor() = default;

  /// Registers the objects nodes' events act on as one array: node n < count
  /// owns the object at `first + n * stride` bytes, at least
  /// kOwnerPrefetchBytes long; nodes from `count` on and the control context
  /// have none. Set before run(). After each pop, dispatch peeks the next
  /// event and, while the popped one runs, prefetches the first
  /// kOwnerPrefetchBytes of that event's object and its spilled closure
  /// block. A prefetch is only a hint to the cache, so dispatch order and
  /// every result stay the same with or without registered objects.
  void set_owner_objects(const void* first, std::size_t stride, std::size_t count) {
    owners_ = OwnerObjects{static_cast<const unsigned char*>(first), stride, count};
  }

  /// Schedules `fn` at absolute virtual time `t` (>= now) on `owner`'s event
  /// stream. The canonical stamp is assigned here from the calling context.
  virtual void schedule(double t, OwnerId owner, Callback fn) = 0;

  /// Virtual time of the event being executed on the calling thread, or the
  /// global clock (last dispatched / barrier time) outside a handler.
  [[nodiscard]] virtual double now() const = 0;

  /// Owner of the event being executed on the calling thread, or
  /// kControlOwner outside a handler.
  [[nodiscard]] virtual OwnerId current_owner() const = 0;

  /// Dispatches events in canonical stamp order until the queue drains or a
  /// limit is hit. On a time-limit stop the clock advances to `time_limit`
  /// and the remaining events stay queued, so callers can resume with a
  /// larger limit. The event limit is a livelock backstop; the sharded
  /// executor checks it at window boundaries and may overshoot by up to one
  /// window of events.
  virtual RunResult run(double time_limit, std::uint64_t event_limit) = 0;

  /// Destroys every pending event and frees the queue memory holding them;
  /// the clock stays where run() stopped. Only at quiescence, like queued().
  virtual void discard_pending() = 0;

  [[nodiscard]] virtual bool empty() const = 0;
  [[nodiscard]] virtual std::size_t queued() const = 0;

 protected:
  /// Read-only once run() starts, so every shard thread may read it.
  OwnerObjects owners_;
};

[[nodiscard]] std::unique_ptr<EventExecutor> make_executor(const ExecutorConfig& config);

/// Thread-count resolution shared by every entry point that exposes
/// --threads / config knobs: an explicit `configured` > 0 wins, else the
/// FTBB_SIM_THREADS environment variable, else 1 (sequential).
[[nodiscard]] std::uint32_t resolve_sim_threads(std::uint32_t configured);

/// Scans argv for a `--threads=N` flag; returns N, or 0 when absent (which
/// sim_threads fields treat as "consult FTBB_SIM_THREADS, else sequential").
[[nodiscard]] std::uint32_t parse_threads_flag(int argc, char** argv);

}  // namespace ftbb::sim
