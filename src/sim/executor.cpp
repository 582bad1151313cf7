#include "sim/executor.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "support/check.hpp"

namespace ftbb::sim {

namespace {

/// A not-yet-enqueued scheduled callback: cross-shard mailbox entries and the
/// (tiny) control heap. (t, src, seq) is the canonical stamp; `owner` is the
/// node whose shard dispatches it. src/seq are assigned at schedule() time
/// from the scheduling context, which makes the total order independent of
/// the executor and the thread count (see executor.hpp). Pending events on
/// the main dispatch path live as EventNodes inside each shard's EventQueue.
struct PendingEvent {
  double t = 0.0;
  OwnerId src = kControlOwner;
  std::uint64_t seq = 0;
  OwnerId owner = kControlOwner;
  Callback fn;
};

/// Canonical order, as a "later than" predicate so std::push_heap/pop_heap
/// build a min-heap. Control (src = -1) sorts before same-time node events,
/// preserving the old kernel's property that fault schedules enqueued before
/// the run win insertion-order ties. Identical to later_stamp() in
/// event_queue.hpp (and to the verbatim seed heap preserved in
/// bench/legacy_event_queue.hpp).
bool later(const PendingEvent& a, const PendingEvent& b) {
  if (a.t != b.t) return a.t > b.t;
  if (a.src != b.src) return a.src > b.src;
  return a.seq > b.seq;
}

void heap_push(std::vector<PendingEvent>& heap, PendingEvent ev) {
  heap.push_back(std::move(ev));
  std::push_heap(heap.begin(), heap.end(), later);
}

PendingEvent heap_pop(std::vector<PendingEvent>& heap) {
  std::pop_heap(heap.begin(), heap.end(), later);
  PendingEvent ev = std::move(heap.back());
  heap.pop_back();
  return ev;
}

/// Busy-wait hint for the barrier spin loops.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

/// Per-thread execution context of the sharded executor. Only shard worker
/// threads set it; the coordinator (and every other thread) falls back to
/// the barrier clock / control context.
struct ExecContext {
  const void* executor = nullptr;
  double now = 0.0;
  OwnerId owner = kControlOwner;
  std::uint32_t shard = 0;
};

thread_local ExecContext tls_ctx;

/// One dispatch, the body of both executors' loops: pops `queue`'s earliest
/// event and, before running it, starts loading what the next event will
/// read: its owner's object in `owners` and its spilled closure block. Then
/// `enter` points the clock and context at the popped event, which runs and
/// is recycled. Peeking right after the pop may promote the next band into
/// the ladder's active heap before the handler schedules into it; the order
/// is the same either way.
template <typename Enter>
void dispatch_one(EventQueue& queue, const OwnerObjects& owners, Enter&& enter) {
  EventNode* ev = queue.pop();
  if (const EventNode* next = queue.peek()) {
    // The control owner (-1) wraps past every count.
    const auto owner = static_cast<std::size_t>(next->owner);
    if (owner < owners.count) {
      const unsigned char* object = owners.first + owner * owners.stride;
      for (std::size_t at = 0; at < kOwnerPrefetchBytes; at += kCacheLineBytes) {
        __builtin_prefetch(object + at);
      }
    }
    next->fn.prefetch();
  }
  enter(*ev);
  ev->fn();
  queue.recycle(ev);
}

// ---------------------------------------------------------------------------
// SequentialExecutor — the extracted single-threaded event loop
// ---------------------------------------------------------------------------

class SequentialExecutor final : public EventExecutor {
 public:
  void schedule(double t, OwnerId owner, Callback fn) override {
    FTBB_CHECK_MSG(t >= now_, "Kernel::at: scheduling into the past");
    FTBB_CHECK(owner >= kControlOwner);
    queue_.push(t, cur_owner_, next_seq(cur_owner_), owner, std::move(fn));
  }

  [[nodiscard]] double now() const override { return now_; }

  [[nodiscard]] OwnerId current_owner() const override { return cur_owner_; }

  RunResult run(double time_limit, std::uint64_t event_limit) override {
    RunResult res;
    while (const EventNode* head = queue_.peek()) {
      if (head->t > time_limit) {
        res.hit_time_limit = true;
        // Advance the clock so a caller can resume with a larger limit.
        now_ = std::max(now_, time_limit);
        cur_owner_ = kControlOwner;
        return res;
      }
      if (res.events >= event_limit) {
        res.hit_event_limit = true;
        cur_owner_ = kControlOwner;
        return res;
      }
      ++res.events;
      dispatch_one(queue_, owners_, [this](const EventNode& ev) {
        now_ = ev.t;
        cur_owner_ = ev.owner;
      });
    }
    cur_owner_ = kControlOwner;
    res.drained = true;
    return res;
  }

  void discard_pending() override { queue_ = EventQueue{}; }

  [[nodiscard]] bool empty() const override { return queue_.empty(); }
  [[nodiscard]] std::size_t queued() const override { return queue_.size(); }

 private:
  std::uint64_t next_seq(OwnerId src) {
    const auto idx = static_cast<std::size_t>(src + 1);
    if (idx >= seq_.size()) seq_.resize(idx + 1, 0);
    return seq_[idx]++;
  }

  EventQueue queue_;
  std::vector<std::uint64_t> seq_;  // per scheduling context, index src + 1
  double now_ = 0.0;
  OwnerId cur_owner_ = kControlOwner;
};

// ---------------------------------------------------------------------------
// ShardedExecutor — conservative-lookahead parallel dispatch
// ---------------------------------------------------------------------------

class ShardedExecutor final : public EventExecutor {
 public:
  explicit ShardedExecutor(const ExecutorConfig& config)
      : lookahead_(config.lookahead),
        nodes_(config.nodes),
        shard_count_(std::min(config.threads, std::max(config.nodes, 1u))),
        seq_(static_cast<std::size_t>(config.nodes) + 1, 0) {
    FTBB_CHECK(lookahead_ > 0.0);
    FTBB_CHECK(shard_count_ >= 1);
    shards_.reserve(shard_count_);
    for (std::uint32_t i = 0; i < shard_count_; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
    // Node -> shard map: configured affinity keys, else round-robin.
    shard_of_.resize(nodes_);
    for (std::uint32_t n = 0; n < nodes_; ++n) {
      const std::uint32_t key = config.shard_of.size() == nodes_
                                    ? config.shard_of[n]
                                    : n;
      shard_of_[n] = key % shard_count_;
    }
    // Shard-pair lookahead: the guaranteed minimum latency of any cross-node
    // event from a node of shard a to a node of shard b — the min of the
    // channel matrix over the groups each shard actually hosts, or the
    // single global lookahead without a channel model. A shard that hosts no
    // nodes never sends, so its rows stay at infinity harmlessly.
    const std::size_t cells = static_cast<std::size_t>(shard_count_) * shard_count_;
    if (config.channels.enabled(nodes_)) {
      const ChannelLookahead& ch = config.channels;
      std::vector<std::vector<bool>> hosts(
          shard_count_, std::vector<bool>(ch.groups, false));
      for (std::uint32_t n = 0; n < nodes_; ++n) {
        FTBB_CHECK(ch.group_of[n] < ch.groups);
        hosts[shard_of_[n]][ch.group_of[n]] = true;
      }
      pair_lookahead_.assign(cells, std::numeric_limits<double>::infinity());
      for (std::uint32_t a = 0; a < shard_count_; ++a) {
        for (std::uint32_t b = 0; b < shard_count_; ++b) {
          double floor = std::numeric_limits<double>::infinity();
          for (std::uint32_t ga = 0; ga < ch.groups; ++ga) {
            if (!hosts[a][ga]) continue;
            for (std::uint32_t gb = 0; gb < ch.groups; ++gb) {
              if (!hosts[b][gb]) continue;
              floor = std::min(
                  floor, ch.min_latency[static_cast<std::size_t>(ga) * ch.groups + gb]);
            }
          }
          // The channel model must refine the global floor, never undercut
          // it — a malformed matrix would otherwise shrink the safety check.
          pair_lookahead_[static_cast<std::size_t>(a) * shard_count_ + b] =
              std::max(floor, lookahead_);
        }
      }
    } else {
      pair_lookahead_.assign(cells, lookahead_);
    }
    // Transitive closure of the pair matrix (Floyd–Warshall): the cheapest
    // *chain* of cross-shard hops from a to b, which is what bounds how soon
    // a's queued work can influence b — a direct message is one hop, but a
    // can also wake an idle shard that then messages b. The diagonal starts
    // at infinity (a shard's own heap is serialized by stamp order and needs
    // no latency bound) and relaxes to the cheapest round trip through other
    // shards; that positive self-cycle is what keeps a shard from outrunning
    // replies to messages it has not yet provoked. Window computation uses
    // this closure; the schedule() safety check keeps the direct matrix.
    pair_closure_ = pair_lookahead_;
    for (std::uint32_t s = 0; s < shard_count_; ++s) {
      pair_closure_[static_cast<std::size_t>(s) * shard_count_ + s] =
          std::numeric_limits<double>::infinity();
    }
    for (std::uint32_t k = 0; k < shard_count_; ++k) {
      for (std::uint32_t a = 0; a < shard_count_; ++a) {
        const double ak = pair_closure_[static_cast<std::size_t>(a) * shard_count_ + k];
        if (ak == std::numeric_limits<double>::infinity()) continue;
        for (std::uint32_t b = 0; b < shard_count_; ++b) {
          double& ab = pair_closure_[static_cast<std::size_t>(a) * shard_count_ + b];
          ab = std::min(ab, ak + pair_closure_[static_cast<std::size_t>(k) * shard_count_ + b]);
        }
      }
    }
  }

  void schedule(double t, OwnerId owner, Callback fn) override {
    const bool on_shard_thread = tls_ctx.executor == this;
    const OwnerId src = on_shard_thread ? tls_ctx.owner : barrier_owner_;
    const double ref_now = on_shard_thread ? tls_ctx.now : barrier_now_;
    FTBB_CHECK_MSG(t >= ref_now, "Kernel::at: scheduling into the past");
    FTBB_CHECK_MSG(owner >= kControlOwner && owner < static_cast<OwnerId>(nodes_),
                   "ShardedExecutor: owner id outside [control, nodes)");
    // Contexts are single-shard (control runs only at barriers), so the
    // per-context counter has exactly one writer and stamps are race-free.
    const std::uint64_t seq = seq_[static_cast<std::size_t>(src + 1)]++;
    if (owner == kControlOwner) {
      FTBB_CHECK_MSG(src == kControlOwner,
                     "only the control context may schedule control events");
      heap_push(control_, PendingEvent{t, src, seq, owner, std::move(fn)});
      return;
    }
    const std::uint32_t dest_shard = shard_of_[static_cast<std::uint32_t>(owner)];
    Shard& dest = *shards_[dest_shard];
    if (on_shard_thread && tls_ctx.shard != dest_shard) {
      // Cross-shard: lands in the mailbox, merged at the next barrier. That
      // is only sound when t lies beyond any window that could be in flight:
      // the destination's window end is at most our shard's barrier head
      // plus the pair lookahead, and our current event time is >= that head,
      // so t >= now + pair lookahead clears it. Abort loudly instead of
      // silently diverging from the sequential order if a caller ever
      // schedules cross-shard closer than the channel's floor.
      FTBB_CHECK_MSG(
          t >= tls_ctx.now + pair_lookahead_[static_cast<std::size_t>(tls_ctx.shard) *
                                                 shard_count_ + dest_shard],
          "ShardedExecutor: cross-shard event closer than the lookahead");
      const std::lock_guard<std::mutex> lock(dest.mail_mu);
      dest.mailbox.push_back(PendingEvent{t, src, seq, owner, std::move(fn)});
    } else {
      // Own queue (same shard), or the coordinator with every shard
      // quiescent (pre-run, post-run, or a control event at a barrier).
      dest.queue.push(t, src, seq, owner, std::move(fn));
    }
  }

  [[nodiscard]] double now() const override {
    return tls_ctx.executor == this ? tls_ctx.now : barrier_now_;
  }

  [[nodiscard]] OwnerId current_owner() const override {
    return tls_ctx.executor == this ? tls_ctx.owner : barrier_owner_;
  }

  RunResult run(double time_limit, std::uint64_t event_limit) override {
    RunResult res;
    for (auto& shard : shards_) shard->events = 0;
    std::vector<std::thread> threads;
    threads.reserve(shard_count_);
    stop_.store(false, std::memory_order_seq_cst);
    // Each thread's "windows seen" baseline is the generation at spawn time,
    // captured HERE: on a resumed run() the counter carries over from the
    // previous run (so zero would look like an already-open window with stale
    // parameters), and a late-starting thread reading the counter itself
    // could adopt a generation the coordinator already advanced — and then
    // sit out the very window the coordinator is waiting on.
    const std::uint64_t start_generation =
        generation_.load(std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < shard_count_; ++i) {
      threads.emplace_back(
          [this, i, start_generation] { shard_main(i, start_generation); });
    }

    std::uint64_t control_events = 0;
    std::vector<double> heads(shard_count_);
    for (;;) {
      drain_mailboxes();
      double next_shard = std::numeric_limits<double>::infinity();
      for (std::uint32_t s = 0; s < shard_count_; ++s) {
        const EventNode* head = shards_[s]->queue.peek();
        heads[s] = head == nullptr ? std::numeric_limits<double>::infinity()
                                   : head->t;
        next_shard = std::min(next_shard, heads[s]);
      }
      const double next_control =
          control_.empty() ? std::numeric_limits<double>::infinity()
                           : control_.front().t;
      const double next_t = std::min(next_shard, next_control);
      if (next_t == std::numeric_limits<double>::infinity()) {
        res.drained = true;
        break;
      }
      if (next_t > time_limit) {
        res.hit_time_limit = true;
        barrier_now_ = std::max(barrier_now_, time_limit);
        break;
      }
      std::uint64_t total = control_events;
      for (const auto& shard : shards_) total += shard->events;
      if (total >= event_limit) {
        res.hit_event_limit = true;
        break;
      }
      // Execute every control-stamped event at next_t — control-owned
      // events in the control heap, plus node-owned events that were
      // scheduled from the control context (late joins, revive timers) and
      // sit atop shard queues — at a barrier, in sequence order. The
      // comparator sorts src = -1 before node stamps at equal time, so these
      // are exactly the events that precede every same-time node-stamped
      // event in the canonical order, and they always surface at their
      // shard's queue head. They may touch cross-node state exactly like on
      // the sequential kernel.
      bool ran_control = false;
      for (;;) {
        // Source of the lowest-seq control-stamped event at next_t:
        // kControlOwner-1 = none, kControlOwner = control heap, else shard.
        std::int64_t source = kControlOwner - 1;
        std::uint64_t best_seq = 0;
        if (!control_.empty() && control_.front().t == next_t) {
          source = kControlOwner;
          best_seq = control_.front().seq;
        }
        for (std::uint32_t s = 0; s < shard_count_; ++s) {
          const EventNode* head = shards_[s]->queue.peek();
          if (head != nullptr && head->t == next_t &&
              head->src == kControlOwner &&
              (source < kControlOwner || head->seq < best_seq)) {
            source = s;
            best_seq = head->seq;
          }
        }
        if (source < kControlOwner) break;
        barrier_now_ = next_t;
        ++control_events;
        ran_control = true;
        if (source == kControlOwner) {
          PendingEvent ev = heap_pop(control_);
          // The executing event's owner becomes the scheduling context, so a
          // barrier-run join stamps its follow-ups exactly like the
          // sequential kernel does.
          barrier_owner_ = ev.owner;
          ev.fn();
        } else {
          EventQueue& q = shards_[static_cast<std::size_t>(source)]->queue;
          EventNode* ev = q.pop();
          barrier_owner_ = ev->owner;
          ev->fn();
          q.recycle(ev);
        }
        barrier_owner_ = kControlOwner;
      }
      if (ran_control) continue;
      // Parallel windows, one end per shard:
      //
      //     w_s = min( next_control,
      //                min over all shards o of head(o) + closure(o -> s) ),
      //
      // where closure is the transitive closure of the pair-lookahead matrix
      // (cheapest chain of cross-shard hops, diagonal = cheapest round trip).
      // Any influence that could still reach shard s starts from some
      // shard's currently queued event (time >= head(o)) and pays at least
      // the shortest hop-chain cost to arrive, so it lands at >= w_s; s's own
      // queued events are already stamp-ordered in its queue and need no
      // latency bound, which is why o == s contributes the round-trip cycle,
      // not zero. No control event precedes w_s either, so shard s cannot
      // observe anyone mid-window. With one latency class and both shards
      // busy every w_s collapses to the classic next_t + lookahead barrier;
      // with per-channel lookahead (or idle neighbors) a shard bordered only
      // by slow links runs far ahead. The shard holding next_t always gets
      // w_s > next_t (all closure entries are positive), so every barrier
      // makes progress. Windows can be much wider than one lookahead now, so
      // each shard also stops after the events remaining under the event
      // limit — a quota hit implies the next barrier reports hit_event_limit,
      // and runs below the limit are never truncated.
      for (std::uint32_t s = 0; s < shard_count_; ++s) {
        double w = next_control;
        for (std::uint32_t o = 0; o < shard_count_; ++o) {
          w = std::min(w, heads[o] + pair_closure_[static_cast<std::size_t>(o) *
                                                       shard_count_ + s]);
        }
        shards_[s]->window_end = w;
      }
      // Open the window: the plain-field window parameters are published by
      // the release increment of generation_ and the shards' acquire loads
      // of it (the cv path re-reads generation_ the same way after waking).
      window_time_limit_ = time_limit;
      window_event_quota_ = event_limit - total;  // >= 1 here
      done_count_.store(0, std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_seq_cst);
      if (work_sleepers_.load(std::memory_order_seq_cst) > 0) {
        // The empty critical section orders this notify after any sleeper's
        // predicate check, so a shard that saw the old generation is already
        // parked (or will re-check and skip the wait).
        { const std::lock_guard<std::mutex> lock(mu_); }
        cv_work_.notify_all();
      }
      // Wait for every shard to finish its window: spin briefly (a window is
      // typically shorter than a futex round trip), then park on the cv.
      std::uint32_t spins = 0;
      while (done_count_.load(std::memory_order_acquire) != shard_count_) {
        if (spins < kSpinIters) {
          cpu_relax();
          ++spins;
        } else if (spins < kSpinIters + kYieldIters) {
          std::this_thread::yield();
          ++spins;
        } else {
          done_waiting_.store(true, std::memory_order_seq_cst);
          std::unique_lock<std::mutex> lock(mu_);
          cv_done_.wait(lock, [this] {
            return done_count_.load(std::memory_order_seq_cst) == shard_count_;
          });
          done_waiting_.store(false, std::memory_order_relaxed);
        }
      }
      for (const auto& shard : shards_) {
        barrier_now_ = std::max(barrier_now_, shard->last_time);
      }
    }

    stop_.store(true, std::memory_order_seq_cst);
    { const std::lock_guard<std::mutex> lock(mu_); }
    cv_work_.notify_all();
    for (std::thread& thread : threads) thread.join();
    res.events = control_events;
    for (const auto& shard : shards_) res.events += shard->events;
    return res;
  }

  void discard_pending() override {
    FTBB_CHECK_MSG(tls_ctx.executor != this,
                   "ShardedExecutor: discard_pending() called from a handler");
    control_ = std::vector<PendingEvent>();
    for (auto& shard : shards_) {
      shard->queue = EventQueue{};
      shard->mailbox = std::vector<PendingEvent>();
      shard->mail_hwm = 0;
    }
  }

  [[nodiscard]] bool empty() const override { return queued() == 0; }

  [[nodiscard]] std::size_t queued() const override {
    // Only meaningful at quiescence (before/after run, or at a barrier);
    // shard queues have no lock, so an in-handler call would be a data race.
    FTBB_CHECK_MSG(tls_ctx.executor != this,
                   "ShardedExecutor: queued()/empty() called from a handler");
    std::size_t n = control_.size();
    for (const auto& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard->mail_mu);
      n += shard->queue.size() + shard->mailbox.size();
    }
    return n;
  }

 private:
  // Spin budgets before a barrier participant parks on its cv. Windows are
  // often a handful of events, so the done/work handshake usually completes
  // inside the spin phase and the futex syscalls disappear from the profile.
  static constexpr std::uint32_t kSpinIters = 256;
  static constexpr std::uint32_t kYieldIters = 16;

  struct alignas(64) Shard {
    EventQueue queue;              // touched by the owner thread in-window,
                                   // by the coordinator at barriers
    std::mutex mail_mu;
    std::vector<PendingEvent> mailbox;  // cross-shard arrivals, next barrier
    std::size_t mail_hwm = 0;      // high-water mark, reserved after drain
    std::uint64_t events = 0;
    double last_time = 0.0;
    double window_end = 0.0;       // written at barriers, read in-window
  };

  void drain_mailboxes() {
    // O(1) amortized per event: mailbox entries append into the ladder's
    // time bands instead of sifting through a binary heap one by one (the
    // old per-event heap_push was the sharded/barrier regression — every
    // barrier paid n log n against the full pending set). The vector keeps
    // its high-water capacity across epochs, so steady-state drains neither
    // allocate nor free.
    for (auto& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard->mail_mu);
      shard->mail_hwm = std::max(shard->mail_hwm, shard->mailbox.size());
      for (PendingEvent& ev : shard->mailbox) {
        shard->queue.push(ev.t, ev.src, ev.seq, ev.owner, std::move(ev.fn));
      }
      shard->mailbox.clear();
      if (shard->mailbox.capacity() < shard->mail_hwm) {
        shard->mailbox.reserve(shard->mail_hwm);
      }
    }
  }

  void shard_main(std::uint32_t index, std::uint64_t seen_generation) {
    tls_ctx = ExecContext{this, 0.0, kControlOwner, index};
    Shard& shard = *shards_[index];
    for (;;) {
      // Wait for the next window (or stop): spin, yield, then park. The
      // seq_cst sleeper count pairs with the coordinator's post-increment
      // read — either it sees us parked and notifies, or we see the new
      // generation and never park.
      std::uint64_t gen;
      std::uint32_t spins = 0;
      for (;;) {
        gen = generation_.load(std::memory_order_acquire);
        if (gen != seen_generation || stop_.load(std::memory_order_acquire))
          break;
        if (spins < kSpinIters) {
          cpu_relax();
          ++spins;
        } else if (spins < kSpinIters + kYieldIters) {
          std::this_thread::yield();
          ++spins;
        } else {
          work_sleepers_.fetch_add(1, std::memory_order_seq_cst);
          {
            std::unique_lock<std::mutex> lock(mu_);
            cv_work_.wait(lock, [&] {
              return stop_.load(std::memory_order_seq_cst) ||
                     generation_.load(std::memory_order_seq_cst) !=
                         seen_generation;
            });
          }
          work_sleepers_.fetch_sub(1, std::memory_order_seq_cst);
        }
      }
      if (stop_.load(std::memory_order_acquire)) break;
      seen_generation = gen;
      std::uint64_t dispatched = 0;
      while (const EventNode* head = shard.queue.peek()) {
        if (!(head->t < shard.window_end) || head->t > window_time_limit_ ||
            dispatched >= window_event_quota_) {
          break;
        }
        ++shard.events;
        ++dispatched;
        dispatch_one(shard.queue, owners_, [&shard](const EventNode& ev) {
          tls_ctx.now = ev.t;
          tls_ctx.owner = ev.owner;
          shard.last_time = ev.t;
        });
      }
      tls_ctx.owner = kControlOwner;
      done_count_.fetch_add(1, std::memory_order_seq_cst);
      if (done_waiting_.load(std::memory_order_seq_cst)) {
        { const std::lock_guard<std::mutex> lock(mu_); }
        cv_done_.notify_one();
      }
    }
    tls_ctx = ExecContext{};
  }

  const double lookahead_;
  const std::uint32_t nodes_;
  const std::uint32_t shard_count_;
  std::vector<std::uint32_t> shard_of_;  // node -> shard
  std::vector<double> pair_lookahead_;   // shard x shard, row-major [from][to]
  std::vector<double> pair_closure_;     // transitive closure; diagonal = min cycle
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<PendingEvent> control_;
  std::vector<std::uint64_t> seq_;  // per scheduling context, index src + 1;
                                    // each context is single-threaded
  double barrier_now_ = 0.0;
  OwnerId barrier_owner_ = kControlOwner;  // context of a barrier-run event

  // Barrier plane: generation_ publishes window parameters (release store /
  // acquire load); done_count_ collects finishers the same way; the mutex +
  // cvs only back the park-when-idle slow path.
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::uint32_t> done_count_{0};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint32_t> work_sleepers_{0};
  std::atomic<bool> done_waiting_{false};
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  double window_time_limit_ = 0.0;
  std::uint64_t window_event_quota_ = 0;  // per-shard in-window dispatch cap
};

}  // namespace

std::unique_ptr<EventExecutor> make_executor(const ExecutorConfig& config) {
  if (config.threads > 1 && config.lookahead > 0.0 && config.nodes > 1) {
    return std::make_unique<ShardedExecutor>(config);
  }
  return std::make_unique<SequentialExecutor>();
}

std::uint32_t parse_threads_flag(int argc, char** argv) {
  std::uint32_t threads = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--threads=", 10) == 0) {
      const long value = std::strtol(arg + 10, nullptr, 10);
      if (value > 0) threads = static_cast<std::uint32_t>(std::min(value, 256L));
    }
  }
  return threads;
}

std::uint32_t resolve_sim_threads(std::uint32_t configured) {
  if (configured > 0) return configured;
  if (const char* env = std::getenv("FTBB_SIM_THREADS")) {
    const long value = std::strtol(env, nullptr, 10);
    if (value > 0) return static_cast<std::uint32_t>(std::min(value, 256L));
  }
  return 1;
}

}  // namespace ftbb::sim
