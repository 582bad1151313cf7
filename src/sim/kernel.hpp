// Discrete-event simulation kernel — the Parsec substitute (Section 6.2).
//
// Parsec models processes as objects exchanging time-stamped messages; the
// kernel here provides the same primitive: schedule a callback at a virtual
// time, dispatch callbacks in canonical stamp order (see executor.hpp). The
// event-loop policy lives behind EventExecutor: the default is the classic
// single-threaded loop, and an ExecutorConfig with threads > 1 and a
// positive lookahead shards per-node event streams across OS threads with
// bit-identical results.
//
// Events are tagged with an owner (a node id, or kControlOwner): the owner
// decides which shard dispatches the event. The one-argument at()/after()
// inherit the owner of the event being executed, which is right for
// self-scheduling (timers, wakes, continuations); cross-node deliveries
// must name the destination explicitly.
//
// Callback is sim::InlineCallback (sim/callback.hpp): move-only, zero heap
// allocations for captures up to 32 bytes, pooled fixed-size blocks beyond.
// Pending events live in the ladder EventQueue (sim/event_queue.hpp) — O(1)
// amortized schedule/dispatch at millions of pending events, same canonical
// stamp order as the seed binary heap.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sim/executor.hpp"
#include "support/check.hpp"

namespace ftbb::sim {

class Kernel {
 public:
  using Callback = sim::Callback;
  using RunResult = sim::RunResult;

  Kernel() : Kernel(ExecutorConfig{}) {}
  explicit Kernel(const ExecutorConfig& config) : exec_(make_executor(config)) {}

  [[nodiscard]] double now() const { return exec_->now(); }

  /// Schedules `fn` at absolute virtual time `t` (>= now, clock is monotone)
  /// on the current context's own event stream.
  void at(double t, Callback fn) {
    exec_->schedule(t, exec_->current_owner(), std::move(fn));
  }

  /// Schedules `fn` at `t` on `owner`'s event stream (cross-node delivery).
  void at(double t, OwnerId owner, Callback fn) {
    exec_->schedule(t, owner, std::move(fn));
  }

  /// Schedules `fn` `delay` seconds from now.
  void after(double delay, Callback fn) { at(now() + delay, std::move(fn)); }
  void after(double delay, OwnerId owner, Callback fn) {
    at(now() + delay, owner, std::move(fn));
  }

  /// Dispatches events until the queue drains or a limit is hit. The event
  /// limit is a livelock backstop for tests. After a time-limit stop the
  /// clock stands at `time_limit` and the queue keeps the remaining events,
  /// so a caller can resume by running again with a larger limit.
  RunResult run(double time_limit = std::numeric_limits<double>::infinity(),
                std::uint64_t event_limit = 500'000'000ULL) {
    return exec_->run(time_limit, event_limit);
  }

  /// Frees the events still queued after a limit stop (node slabs, spilled
  /// closures and the messages they carry), for a caller that will not resume.
  void discard_pending() { exec_->discard_pending(); }

  [[nodiscard]] bool empty() const { return exec_->empty(); }
  [[nodiscard]] std::size_t queued() const { return exec_->queued(); }

  /// Registers the objects nodes' events act on as one array
  /// (EventExecutor::set_owner_objects): dispatch prefetches a node's object
  /// ahead of its next event. Results do not change.
  void set_owner_objects(const void* first, std::size_t stride, std::size_t count) {
    exec_->set_owner_objects(first, stride, count);
  }

 private:
  std::unique_ptr<EventExecutor> exec_;
};

}  // namespace ftbb::sim
