#include "sim/cluster.hpp"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
#include <variant>

#include "core/code_set.hpp"
#include "core/frame.hpp"
#include "support/check.hpp"

namespace ftbb::sim {

namespace {

trace::Activity to_activity(core::CostKind kind) {
  switch (kind) {
    case core::CostKind::kBB:
      return trace::Activity::kBB;
    case core::CostKind::kContraction:
      return trace::Activity::kContraction;
    case core::CostKind::kComm:
      return trace::Activity::kComm;
    case core::CostKind::kLoadBalance:
      return trace::Activity::kLB;
    case core::CostKind::kIdle:
      return trace::Activity::kIdle;
  }
  return trace::Activity::kIdle;
}

/// FIFO on one vector: a pop advances a head index, and a push first drops
/// the popped prefix once it is at least half the storage, so the storage
/// is reused instead of growing and compaction moves no more elements than
/// were popped. An empty Fifo owns no heap memory until its first push.
template <typename T>
class Fifo {
 public:
  [[nodiscard]] bool empty() const { return head_ == items_.size(); }

  void push(T item) {
    if (head_ > 0 && 2 * head_ >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    items_.push_back(std::move(item));
  }

  T pop() { return std::move(items_[head_++]); }

  void clear() {
    items_.clear();
    head_ = 0;
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// WorkerHost: the per-worker IWorkerEnv adapter
// ---------------------------------------------------------------------------

class alignas(kCacheLineBytes) SimCluster::WorkerHost final : public core::IWorkerEnv {
 public:
  WorkerHost(SimCluster* cluster, core::NodeId id, std::uint64_t seed)
      : cluster_(cluster), id_(id), rng_(seed) {
    // The kernel prefetches a host's first kOwnerPrefetchBytes ahead of its
    // next event: the hot block below and the worker's leading hot fields
    // (344 bytes) must lie inside them. A host starts on a cache line, so the
    // six hints cover exactly those bytes. (offsetof is conditionally
    // supported on a class with virtual functions; GCC and Clang give the
    // layout offset.)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
    static_assert(offsetof(WorkerHost, worker_) + core::BnbWorker::kHotBytes <=
                      kOwnerPrefetchBytes,
                  "the host's hot block outgrew the kernel's prefetch span");
#pragma GCC diagnostic pop
    static_assert(sizeof(WorkerHost) <= 16 * kCacheLineBytes,
                  "the host outgrew its footprint; see the README's "
                  "\"Per-worker footprint\" section before raising this bound");
    worker_.emplace(id, &cluster->model_, &cluster->config_.worker, this);
  }

  core::BnbWorker& worker() { return *worker_; }
  [[nodiscard]] const core::BnbWorker& worker() const { return *worker_; }
  [[nodiscard]] bool alive() const { return alive_; }
  [[nodiscard]] double crash_time() const { return crash_time_; }

  /// Work ledger across all incarnations, crashed lives folded first (the
  /// paper's aggregates cover crashed processors' time too; kIncarnations
  /// counts one per life).
  [[nodiscard]] core::WorkLedger merged_ledger() const {
    core::WorkLedger total = prior_ ? *prior_ : core::WorkLedger{};
    total.add(worker_->work_snapshot());
    return total;
  }

  /// One-shot removal from the set of workers that must halt for the run to
  /// be considered finished (crash, or a join that can never happen).
  void leave_live_set() {
    if (!counts_toward_live_) return;
    counts_toward_live_ = false;
    --cluster_->live_count_;
  }

  /// Re-entry after a revival: the fresh incarnation must halt again for
  /// the run to finish.
  void rejoin_live_set() {
    if (counts_toward_live_) return;
    counts_toward_live_ = true;
    ++cluster_->live_count_;
  }

  void start(bool with_root) {
    started_ = true;
    // Late joiners begin their local clock at the join instant; the time
    // before joining belongs to no activity category.
    busy_until_ = std::max(busy_until_, cluster_->kernel_.now());
    worker_->on_start(with_root);
  }

  [[nodiscard]] bool started() const { return started_; }

  void kill(double t) {
    if (!alive_) return;
    // An idle worker's open gap ends here: no later event of this
    // incarnation will close it.
    if (started_ && !worker_->halted() && busy_until_ < t) {
      attribute_gap(busy_until_, t);
      busy_until_ = t;
    }
    alive_ = false;
    crash_time_ = t;
    inbox_.clear();
  }

  /// Restarts a crashed worker as a fresh incarnation: state gone, epoch
  /// bumped so the dead incarnation's in-flight messages and armed timers
  /// are dropped, local clock restarted at the revival instant.
  void revive() {
    FTBB_CHECK(!alive_);
    if (!prior_) prior_ = std::make_unique<core::WorkLedger>();
    prior_->add(worker_->work_snapshot());
    ++cluster_->epochs_[id_];
    alive_ = true;
    started_ = true;
    // The new incarnation's first report must be self-contained: never delta
    // against the dead predecessor's last batch.
    delta_.reset();
    inbox_.clear();
    busy_until_ = cluster_->kernel_.now();
    wait_hint_ = core::WaitHint::kIdle;
    worker_.emplace(id_, &cluster_->model_, &cluster_->config_.worker, this);
    worker_->on_start(false);
  }

  /// Entry point for message arrivals from the network. `epoch` is the
  /// incarnation the sender addressed; mail for a dead incarnation is
  /// dropped even if the worker has since been revived. `bytes` is the
  /// sender-computed frame size (the receiver cannot recompute a report
  /// frame's size from the Message alone: its delta chain depends on the
  /// sender's previous batch).
  void accept(core::Message msg, std::size_t bytes, std::uint64_t epoch) {
    if (epoch != incarnation()) return;  // addressed to a crashed incarnation
    if (!started_ || !alive_ || worker_->halted()) return;  // crash-stop / terminated
    arrive(Inbound{std::move(msg), bytes});
  }

  // ---- core::IWorkerEnv ----

  [[nodiscard]] double now() const override { return busy_until_; }

  void send(core::NodeId to, core::Message msg) override {
    // Frame-size the message; a report/gossip batch advances the
    // per-incarnation delta state, created with the incarnation's first
    // batch (idempotently per batch — the m fanout copies size identically).
    // Other frames never consult that state, so they do not load it.
    const bool chained = msg.type == core::MsgType::kWorkReport ||
                         msg.type == core::MsgType::kTableGossip;
    core::ReportDeltaState* delta = nullptr;
    if (chained) {
      if (!delta_) delta_ = std::make_unique<core::ReportDeltaState>();
      delta = delta_.get();
    }
    const bool was_active = delta != nullptr && delta->active;
    const std::size_t bytes = core::frame_size(msg, delta);
    ++wire_.frames;
    wire_.frame_bytes += bytes;
    if (chained) {
      ++wire_.report_frames;
      wire_.report_frame_bytes += bytes;
      if (!was_active) ++report_streams_;
      if (delta->seq == 0) {
        ++wire_.self_contained_reports;
      } else {
        ++wire_.delta_reports;
        wire_.delta_report_bytes += bytes;
      }
    }
    core::WorkLedger& work = worker_->work();
    ++work[core::WorkItem::kMsgsSent];
    work[core::WorkItem::kWireBytesSent] += bytes;
    charge(core::CostKind::kComm,
           cluster_->config_.worker.costs.send_fixed +
               cluster_->config_.worker.costs.send_per_byte * static_cast<double>(bytes));
    // The destination's address is arithmetic on the host array and its
    // incarnation comes from the cluster's dense epoch array, so a send
    // touches no line of the destination's host.
    cluster_->network_->send(
        id_, to, bytes, busy_until_,
        [dest = &cluster_->hosts_[to], dest_epoch = cluster_->epochs_[to],
         bytes, msg = std::move(msg)]() mutable {
          dest->accept(std::move(msg), bytes, dest_epoch);
        });
  }

  void set_timer(core::TimerKind kind, double delay, std::uint64_t gen) override {
    FTBB_CHECK(delay >= 0.0);
    // Every arm of a kind carries a strictly larger generation, so this slot
    // always holds the latest armed gen (per incarnation; older-epoch fires
    // die on the epoch check below before consulting it).
    timer_slot_[static_cast<int>(kind)] = gen;
    // Owner-tagged: the firing must run on this worker's shard even when the
    // timer is armed from the control context (join / revive).
    cluster_->kernel_.at(busy_until_ + delay, static_cast<OwnerId>(id_),
                         [this, kind, gen, epoch = incarnation()]() {
      if (epoch != incarnation() || !alive_ || worker_->halted()) return;
      // Superseded arm: the worker's own gen filter would discard this fire
      // anyway (~40% of all fires in the planetary storm), so it never
      // reaches the worker. The idle gap it falls into is attributed by the
      // next event that does, or by kill() or finalize().
      if (gen != timer_slot_[static_cast<int>(kind)]) return;
      arrive(TimerFire{kind, gen});
    });
  }

  void charge(core::CostKind kind, double seconds) override {
    if (seconds <= 0.0) return;
    worker_->work().time(kind) += seconds;
    if (cluster_->config_.record_trace) {
      trace_.add(id_, busy_until_, busy_until_ + seconds, to_activity(kind));
    }
    busy_until_ += seconds;
  }

  support::Rng& rng() override { return rng_; }

  [[nodiscard]] std::span<const core::NodeId> peers() const override {
    // Peer set = members that have joined so far, minus self; crashed
    // members stay listed (their failure is not detectable, Section 4).
    // With peer_view_limit set, the view shrinks to the members that follow
    // this worker in join order — a ring neighborhood, so the union of all
    // views stays connected and per-worker memory stays O(limit) instead of
    // O(n). A window that does not wrap is a slice of the join order that
    // later joins never change, so it is returned in place; a wrapping
    // window and the full view are copied, and recopied when the membership
    // version changes.
    const std::vector<core::NodeId>& joined = cluster_->joined_;
    const std::size_t limit = cluster_->config_.peer_view_limit;
    const std::size_t pos = cluster_->join_pos_[id_];
    if (limit > 0 && pos + limit < joined.size()) {
      return {joined.data() + pos + 1, limit};
    }
    if (peers_version_ != cluster_->membership_version_) {
      peers_version_ = cluster_->membership_version_;
      peers_cache_.clear();
      if (limit > 0 && joined.size() > limit + 1) {
        peers_cache_.reserve(limit);
        for (std::size_t k = 1; k <= limit; ++k) {
          peers_cache_.push_back(joined[(pos + k) % joined.size()]);
        }
      } else {
        for (const core::NodeId id : joined) {
          if (id != id_) peers_cache_.push_back(id);
        }
      }
    }
    return peers_cache_;
  }

  void set_wait_hint(core::WaitHint hint) override { wait_hint_ = hint; }

  void notify_halted() override {
    cluster_->live_halted_.fetch_add(1, std::memory_order_relaxed);
    inbox_.clear();
  }

  void note_expansion(const core::PathCode& code, double cost) override {
    log_.add(code, cost);
  }

  void note_completion(const core::PathCode& code) override { log_.complete(code); }

  [[nodiscard]] ExpansionLog& log() { return log_; }
  [[nodiscard]] const ExpansionLog& log() const { return log_; }
  [[nodiscard]] const trace::Timeline& trace() const { return trace_; }

  /// Unaccounted tail time for workers that never halted (hit a limit).
  void finalize(double end_time) {
    if (alive_ && !worker_->halted() && end_time > busy_until_) {
      attribute_gap(busy_until_, end_time);
    }
  }

  [[nodiscard]] const WireStats& wire_stats() const { return wire_; }
  [[nodiscard]] std::uint32_t report_streams() const { return report_streams_; }

 private:
  struct TimerFire {
    core::TimerKind kind;
    std::uint64_t gen;
  };
  struct Inbound {
    core::Message msg;
    std::size_t bytes;  // frame size as computed (and charged) by the sender
  };
  using Pending = std::variant<Inbound, TimerFire>;

  /// This worker's current incarnation (the cluster's epoch array holds it).
  [[nodiscard]] std::uint64_t incarnation() const {
    return cluster_->epochs_[id_];
  }

  void attribute_gap(double from, double to) {
    const double dur = to - from;
    if (dur <= 0.0) return;
    const core::CostKind kind = (wait_hint_ == core::WaitHint::kAwaitingWork)
                                    ? core::CostKind::kLoadBalance
                                    : core::CostKind::kIdle;
    worker_->work().time(kind) += dur;
    if (cluster_->config_.record_trace) {
      trace_.add(id_, from, to,
                 kind == core::CostKind::kLoadBalance ? trace::Activity::kLB
                                                      : trace::Activity::kIdle);
    }
  }

  /// An event for the live incarnation. A worker that is idle with an empty
  /// inbox handles it at once — exactly what pump() would do with it as the
  /// only entry — so its inbox never allocates; otherwise it queues behind
  /// the busy period and the earlier mail.
  void arrive(Pending e) {
    const double t = cluster_->kernel_.now();
    if (inbox_.empty() && busy_until_ <= t) {
      handle(t, e);
      return;
    }
    inbox_.push(std::move(e));
    pump();
  }

  /// Drains pending events whose effective time has come. If a handler
  /// makes the worker busy, the remainder waits for a wake at busy end.
  void pump() {
    const double t = cluster_->kernel_.now();
    if (!alive_ || worker_->halted()) {
      inbox_.clear();
      return;
    }
    if (t < busy_until_) {
      schedule_wake();
      return;
    }
    while (!inbox_.empty()) {
      if (busy_until_ > t) {
        schedule_wake();
        return;
      }
      Pending e = inbox_.pop();
      handle(t, e);
      if (!alive_ || worker_->halted()) {
        inbox_.clear();
        return;
      }
    }
  }

  /// The per-event body: closes the idle gap up to kernel time `t`, then
  /// hands the event to the worker. Handlers add nothing to this worker's
  /// inbox (their sends and timers go through the kernel), which is what
  /// lets arrive() bypass an empty inbox.
  void handle(double t, Pending& e) {
    if (busy_until_ < t) {
      attribute_gap(busy_until_, t);
      busy_until_ = t;
    }
    if (Inbound* in = std::get_if<Inbound>(&e)) {
      core::WorkLedger& work = worker_->work();
      ++work[core::WorkItem::kMsgsReceived];
      work[core::WorkItem::kWireBytesReceived] += in->bytes;
      charge(core::CostKind::kComm,
             cluster_->config_.worker.costs.recv_fixed +
                 cluster_->config_.worker.costs.recv_per_byte *
                     static_cast<double>(in->bytes));
      worker_->on_message(in->msg);
    } else {
      const TimerFire& fire = std::get<TimerFire>(e);
      worker_->on_timer(fire.kind, fire.gen);
    }
  }

  void schedule_wake() {
    const std::uint64_t gen = ++wake_gen_;
    cluster_->kernel_.at(busy_until_, static_cast<OwnerId>(id_), [this, gen]() {
      if (gen != wake_gen_) return;  // superseded by a later busy extension
      pump();
    });
  }

  // Hot block: what one event of an idle worker's request, deny and backoff
  // loop reads, packed at the front (the worker's own hot fields lead
  // BnbWorker in turn). The kernel prefetches it, with the worker's hot
  // fields, while the event before this host's next one runs.
  SimCluster* cluster_;
  double busy_until_ = 0.0;
  core::NodeId id_;
  bool alive_ = true;
  bool started_ = false;
  core::WaitHint wait_hint_ = core::WaitHint::kIdle;
  std::uint64_t wake_gen_ = 0;
  /// Latest armed generation per timer kind (single-writer: only this
  /// worker's shard arms and fires its timers). Fires with an older gen are
  /// dropped at the kernel boundary instead of riding through pump().
  std::uint64_t timer_slot_[core::kTimerKinds] = {};
  Fifo<Pending> inbox_;  // events that found the worker busy
  support::Rng rng_;
  WireStats wire_;  // all incarnations of this worker
  mutable std::uint64_t peers_version_ = ~0ULL;
  mutable std::vector<core::NodeId> peers_cache_;
  std::optional<core::BnbWorker> worker_;  // re-emplaced on revival

  // Cold: allocated on first use, or read only at collection.
  /// Per incarnation: the first report/gossip batch creates it, revive()
  /// drops it.
  std::unique_ptr<core::ReportDeltaState> delta_;
  /// What crashed incarnations spent, folded on each revive; allocated on
  /// the first one, so a worker that never crashes carries one pointer.
  std::unique_ptr<core::WorkLedger> prior_;
  std::uint32_t report_streams_ = 0;  // incarnations that opened a report chain
  bool counts_toward_live_ = true;
  double crash_time_ = -1.0;
  ExpansionLog log_;          // every expansion and completion of this host
  trace::Timeline trace_;     // host-local; merged in collect()
};

// ---------------------------------------------------------------------------
// SimCluster
// ---------------------------------------------------------------------------

namespace {

/// Kernel policy for a cluster config: shard per-worker event streams when
/// asked to, with the network's latency floors as conservative lookahead
/// (global, plus per-channel when the topology is hierarchical; see
/// make_executor_config). make_executor falls back to sequential dispatch
/// when the lookahead is zero — results are identical either way.
ExecutorConfig executor_config(const ClusterConfig& config) {
  return make_executor_config(config.net, config.workers,
                              resolve_sim_threads(config.sim_threads),
                              config.per_channel_lookahead);
}

}  // namespace

SimCluster::SimCluster(const bnb::IProblemModel& model, const ClusterConfig& config)
    : model_(model),
      config_(config),
      kernel_(executor_config(config)) {
  FTBB_CHECK(config_.workers >= 1);
  support::Rng master(config_.seed);
  network_ = std::make_unique<Network>(&kernel_, config_.net, master.split(0x6e657477),
                                       config_.workers);
  FTBB_CHECK_MSG(config_.join_times.empty() ||
                     config_.join_times.size() == config_.workers,
                 "join_times must be empty or one entry per worker");
  FTBB_CHECK_MSG(config_.join_times.empty() ||
                     config_.join_times[kRootHolder] == 0.0,
                 "the root holder must join at time 0");
  epochs_.assign(config_.workers, 0);
  joined_.reserve(config_.workers);
  hosts_.reserve(config_.workers);
  for (core::NodeId id = 0; id < config_.workers; ++id) {
    hosts_.emplace_back(this, id, master.split(id).next());
  }
  kernel_.set_owner_objects(hosts_.data(), sizeof(WorkerHost), hosts_.size());
  join_pos_.assign(config_.workers, 0);
  live_count_ = config_.workers;

  // The cluster's fault surface is driven like any other backend's: the
  // config's fault fields become one compiled schedule and a FaultDriver
  // arms it on the kernel's control stream.
  fault::FaultSchedule schedule;
  schedule.population = config_.workers;
  for (const CrashEvent& crash : config_.crashes) {
    schedule.crashes.push_back(fault::CrashAt{crash.node, crash.time});
  }
  for (const ReviveEvent& rejoin : config_.rejoins) {
    schedule.revives.push_back(fault::ReviveAt{rejoin.node, rejoin.time});
  }
  schedule.join_times = config_.join_times;
  schedule.partitions = config_.partitions;
  schedule.loss_rules = config_.loss_rules;
  driver_.emplace(std::move(schedule), this, this);
}

SimCluster::~SimCluster() = default;

bool SimCluster::finished() const {
  return live_halted_.load(std::memory_order_relaxed) >= live_count_;
}

// ---- the cluster as a fault-injectable backend ----

void SimCluster::crash(std::uint32_t node) {
  // Crashing reduces the live population that must halt for the run to be
  // considered finished. A node that already crashed or already detected
  // termination absorbs the injection as a no-op.
  WorkerHost& host = hosts_[node];
  if (!host.alive() || host.worker().halted()) return;
  host.kill(kernel_.now());
  host.leave_live_set();
}

void SimCluster::revive(std::uint32_t node) {
  WorkerHost& host = hosts_[node];
  // Only a crashed, previously started worker can re-enter; a revive aimed
  // at a live worker (its crash was skipped because it had already halted)
  // is a no-op.
  if (host.alive() || !host.started()) return;
  host.revive();
  host.rejoin_live_set();
  // No membership update: the worker had started, so it joined, and crashed
  // members are never removed from joined_ (failures are not detectable,
  // Section 4) — peers still list it and their mail reaches the new
  // incarnation.
}

void SimCluster::join(std::uint32_t node) {
  WorkerHost& host = hosts_[node];
  if (!host.alive()) return;  // crashed before joining; already uncounted
  FTBB_CHECK_MSG(joined_.size() < joined_.capacity(),
                 "a join would move the peer views' join order");
  join_pos_[node] = static_cast<std::uint32_t>(joined_.size());
  joined_.push_back(node);
  ++membership_version_;
  host.start(node == kRootHolder);
}

void SimCluster::abandon_join(std::uint32_t node) { hosts_[node].leave_live_set(); }

void SimCluster::set_partition(const Partition& partition) {
  network_->add_partition(partition);
}

void SimCluster::set_loss_rule(const LossRule& rule) { network_->add_loss_rule(rule); }

void SimCluster::call_at(double at, Callback fn) {
  // Control-context scheduling: under a sharded executor the injection runs
  // at an epoch barrier with every shard quiescent.
  kernel_.at(at, std::move(fn));
}

void SimCluster::start() {
  driver_->arm(config_.time_limit);
  if (config_.storage_sample_interval > 0.0) {
    kernel_.after(config_.storage_sample_interval, [this]() { sample_storage(); });
  }
}

void SimCluster::sample_storage() {
  // Runs as a control event: every shard is quiescent at a barrier, so the
  // worker tables reflect exactly the events before the sample instant.
  std::size_t total = 0;
  for (const WorkerHost& host : hosts_) {
    if (!host.alive()) continue;
    total += host.worker().table().encoded_bytes();
  }
  if (total > peak_total_bytes_) {
    peak_total_bytes_ = total;
    // collect() folds the union table of this instant from the logs.
    for (WorkerHost& host : hosts_) host.log().mark();
  }
  if (!finished()) {
    kernel_.after(config_.storage_sample_interval, [this]() { sample_storage(); });
  }
}

ClusterResult SimCluster::run(const bnb::IProblemModel& model,
                              const ClusterConfig& config) {
  SimCluster cluster(model, config);
  cluster.start();
  const Kernel::RunResult kr =
      cluster.kernel_.run(config.time_limit, kEventLimit);
  // No run resumes: the events still queued at a limit are freed before
  // the result is built. Their slabs go back to the heap for the result's
  // smaller vectors; the ledger array is big enough to get a mapping of its
  // own.
  const double end_time = std::min(cluster.kernel_.now(), config.time_limit);
  cluster.kernel_.discard_pending();
  ClusterResult result = cluster.collect(end_time);
  result.hit_time_limit = kr.hit_time_limit;
  result.hit_event_limit = kr.hit_event_limit;
  result.kernel_events = kr.events;
  return result;
}

std::size_t SimCluster::peak_union_bytes() const {
  // The contracted table depends only on the set of completions, so folding
  // the hosts' marked completions in sorted batches rebuilds exactly the
  // union table of the peak instant.
  core::CodeSet united;
  std::vector<core::PathCode> batch;
  const auto fold = [&united, &batch]() {
    std::sort(batch.begin(), batch.end());
    united.insert_all(batch);
    batch.clear();
  };
  for (const WorkerHost& host : hosts_) {
    host.log().decode([&](const ExpansionLog::Record& r) {
      if (!r.completed) return;
      batch.emplace_back(r.code);
      if (batch.size() == 4096) fold();
    }, host.log().marked());
  }
  fold();
  return united.encoded_bytes();
}

ClusterResult SimCluster::collect(double end_time) {
  ClusterResult res;
  res.first_detection = bnb::kInfinity;
  res.worker_ledgers.reserve(hosts_.size());
  res.crashed.reserve(hosts_.size());
  res.incumbents.reserve(hosts_.size());
  res.halted_at.reserve(hosts_.size());
  res.report_streams_per_worker.reserve(hosts_.size());
  std::uint32_t live_halted = 0;
  std::uint32_t live_total = 0;
  std::vector<const ExpansionLog*> logs;  // most storm hosts expand nothing
  for (WorkerHost& host : hosts_) {
    host.finalize(end_time);
    if (host.log().size() > 0) logs.push_back(&host.log());
    const core::BnbWorker& w = host.worker();
    res.worker_ledgers.push_back(host.merged_ledger());
    res.work.add(res.worker_ledgers.back());
    res.crashed.push_back(!host.alive());
    res.incumbents.push_back(w.incumbent());
    res.halted_at.push_back(w.halted_at());
    // A member that never started (its join was abandoned at the horizon)
    // is not part of the live set the run waits for.
    if (host.alive() && host.started()) {
      ++live_total;
      if (w.halted()) {
        ++live_halted;
        res.makespan = std::max(res.makespan, w.halted_at());
        res.first_detection = std::min(res.first_detection, w.halted_at());
        if (w.incumbent() < res.solution) {
          res.solution = w.incumbent();
          res.solution_found = true;
        }
      }
      res.final_table_bytes_total += w.table().encoded_bytes();
    }
    res.wire.add(host.wire_stats());
    res.report_streams_per_worker.push_back(host.report_streams());
  }
  res.all_live_halted = live_total > 0 && live_halted == live_total;
  if (!res.all_live_halted) res.makespan = end_time;

  res.account_expansions(logs);

  res.peak_table_bytes_total = peak_total_bytes_;
  if (peak_total_bytes_ > 0) res.peak_table_bytes_unique = peak_union_bytes();
  res.net = network_->stats();
  if (config_.record_trace) {
    // Stitch the per-host charts together in worker order, then close the
    // chart with terminal states.
    for (const WorkerHost& host : hosts_) {
      for (const trace::Interval& iv : host.trace().intervals()) {
        res.timeline.add(iv.proc, iv.t0, iv.t1, iv.activity);
      }
    }
    for (core::NodeId id = 0; id < config_.workers; ++id) {
      const WorkerHost& host = hosts_[id];
      if (!host.alive()) {
        res.timeline.add(id, host.crash_time(), end_time, trace::Activity::kDead);
      } else if (host.worker().halted()) {
        res.timeline.add(id, host.worker().halted_at(), end_time,
                         trace::Activity::kDone);
      }
    }
  }
  return res;
}

}  // namespace ftbb::sim
