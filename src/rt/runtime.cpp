#include "rt/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>
#include <unordered_set>
#include <variant>

#include "core/frame.hpp"
#include "core/messages.hpp"
#include "fault/driver.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace ftbb::rt {

namespace {

using Clock = std::chrono::steady_clock;

struct TimerFire {
  core::TimerKind kind;
  std::uint64_t gen;
};
struct InboundMsg {
  core::Message msg;
  std::size_t bytes;  // frame size as received off the wire
};
struct Poison {};
using Event = std::variant<InboundMsg, TimerFire, Poison>;

/// Codes expanded; the merge reads only how many distinct ones there are.
using ExpansionSet = std::unordered_set<core::PathCode, core::PathCodeHash>;

/// Unbounded MPSC mailbox; one consumer (the incarnation's thread).
class Mailbox {
 public:
  void push(Event e) {
    {
      std::lock_guard lock(mutex_);
      queue_.push_back(std::move(e));
    }
    cv_.notify_one();
  }

  Event pop() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return !queue_.empty(); });
    Event e = std::move(queue_.front());
    queue_.pop_front();
    return e;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Event> queue_;
};

/// Wall-clock deadline scheduler: one background thread dispatches arbitrary
/// closures at absolute times (seconds since run start). Message deliveries,
/// worker timers, and fault injections all flow through it — it doubles as
/// the runtime's fault::IFaultClock. Items may be queued before start();
/// stop() discards whatever has not come due.
class Scheduler {
 public:
  void schedule(double at, sim::Callback fn) {
    {
      std::lock_guard lock(mutex_);
      queue_.push(Item{at, next_seq_++, std::move(fn)});
    }
    cv_.notify_one();
  }

  void start(Clock::time_point t0) {
    start_ = t0;
    thread_ = std::thread([this] { loop(); });
  }

  void stop() {
    {
      std::lock_guard lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

 private:
  struct Item {
    double at;
    std::uint64_t seq;
    mutable sim::Callback fn;  // moved out at dispatch; top is const

    bool operator>(const Item& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  void loop() {
    std::unique_lock lock(mutex_);
    while (true) {
      if (stopping_) return;
      if (queue_.empty()) {
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        continue;
      }
      const double t = now();
      const Item& top = queue_.top();
      if (top.at <= t) {
        sim::Callback fn = std::move(top.fn);
        queue_.pop();
        lock.unlock();
        fn();
        lock.lock();
        continue;
      }
      cv_.wait_for(lock, std::chrono::duration<double>(top.at - t));
    }
  }

  Clock::time_point start_{};
  std::mutex mutex_;
  std::condition_variable cv_;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue_;
  std::uint64_t next_seq_ = 0;
  bool stopping_ = false;
  std::thread thread_;
};

class RtCluster;
class WorkerHost;

/// One incarnation of a member: a fresh BnbWorker, its mailbox, and the
/// thread that drives both. Crashing retires the whole object (its thread
/// exits; the state stays readable for ledger merging) and reviving spawns a
/// new one — nothing of a dead incarnation ever leaks into its successor,
/// mirroring the simulator's crash-stop semantics.
class Incarnation final : public core::IWorkerEnv {
 public:
  Incarnation(WorkerHost* host, std::uint64_t epoch, std::uint64_t seed);

  void start(bool with_root) {
    thread_ = std::thread([this, with_root] { thread_main(with_root); });
  }

  /// Crash-stop (or teardown): the thread exits at its next event, a sleep
  /// emulating B&B cost is interrupted, and sends are suppressed.
  void stop() {
    stopped_.store(true, std::memory_order_release);
    {
      std::lock_guard lock(sleep_mu_);
    }
    sleep_cv_.notify_all();
    mailbox_.push(Event{Poison{}});
  }

  [[nodiscard]] bool stopped() const {
    return stopped_.load(std::memory_order_acquire);
  }

  Mailbox& mailbox() { return mailbox_; }
  core::BnbWorker& worker() { return *worker_; }
  [[nodiscard]] const core::BnbWorker& worker() const { return *worker_; }
  [[nodiscard]] const ExpansionSet& expansions() const { return expansions_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  /// Whether this incarnation opened a report delta chain (sent at least
  /// one report/gossip batch). Post-run observer: read after join_thread().
  [[nodiscard]] bool opened_report_stream() const { return delta_.active; }

  bool join_thread() {
    if (!thread_.joinable()) return false;
    thread_.join();
    return true;
  }

  // ---- core::IWorkerEnv (called from this incarnation's thread only) ----

  [[nodiscard]] double now() const override;
  void send(core::NodeId to, core::Message msg) override;
  void set_timer(core::TimerKind kind, double delay, std::uint64_t gen) override;
  void charge(core::CostKind kind, double seconds) override;
  support::Rng& rng() override { return rng_; }
  [[nodiscard]] const std::vector<core::NodeId>& peers() const override;
  void set_wait_hint(core::WaitHint hint) override { (void)hint; }
  void notify_halted() override;
  void note_expansion(const core::PathCode& code, double cost) override {
    (void)cost;
    expansions_.insert(code);
  }

 private:
  void thread_main(bool with_root) {
    worker_->on_start(with_root);
    while (true) {
      Event e = mailbox_.pop();
      if (std::holds_alternative<Poison>(e)) break;
      if (stopped()) break;
      if (auto* in = std::get_if<InboundMsg>(&e)) {
        if (!worker_->halted()) {
          core::WorkLedger& work = worker_->work();
          ++work[core::WorkItem::kMsgsReceived];
          work[core::WorkItem::kWireBytesReceived] += in->bytes;
          worker_->on_message(in->msg);
        }
      } else {
        const TimerFire& fire = std::get<TimerFire>(e);
        worker_->on_timer(fire.kind, fire.gen);
      }
    }
  }

  WorkerHost* host_;
  std::uint64_t epoch_;
  support::Rng rng_;
  Mailbox mailbox_;
  std::optional<core::BnbWorker> worker_;
  ExpansionSet expansions_;
  std::thread thread_;
  core::ReportDeltaState delta_;  // dies with the incarnation: a revived
                                  // worker never deltas against a dead
                                  // predecessor's last report
  std::atomic<bool> stopped_{false};
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  mutable std::vector<core::NodeId> peers_cache_;
  mutable std::uint64_t peers_version_ = ~0ULL;

  friend class WorkerHost;
};

/// Per-member control block: the current incarnation, retired ones, and the
/// epoch/liveness state the fault plane mutates. Control state is guarded by
/// mu_; the epoch is mirrored in an atomic so senders can capture the
/// destination incarnation without locking.
class WorkerHost {
 public:
  WorkerHost(RtCluster* cluster, core::NodeId id, std::uint64_t seed)
      : cluster_(cluster), id_(id), seed_(seed) {}

  [[nodiscard]] core::NodeId id() const { return id_; }
  [[nodiscard]] std::uint64_t epoch() const {
    return epoch_atomic_.load(std::memory_order_acquire);
  }

  /// Membership arrival. No-op if the member crashed before joining.
  void join(bool with_root);

  /// Crash-stop injection: tears down the current incarnation. No-op on a
  /// dead member or one whose current incarnation already detected
  /// termination (its halt is honored, as in the simulator).
  void inject_crash();

  /// A previously crashed, previously started member re-enters as a fresh,
  /// empty incarnation under a bumped epoch.
  void inject_revive();

  /// The member's join time lies beyond the horizon: never participates.
  void abandon_join();

  /// Delivery entry points (scheduler thread). `epoch` is the incarnation
  /// captured when the message/timer was created; mail for a dead
  /// incarnation is dropped even if the member has since been revived.
  void accept_message(core::Message msg, std::size_t bytes, std::uint64_t epoch);
  void accept_timer(core::TimerKind kind, std::uint64_t gen, std::uint64_t epoch);

  /// Called by the current incarnation's thread on termination detection.
  void on_incarnation_halted(std::uint64_t epoch);

  /// Teardown: stop whatever incarnation is running.
  void stop_current() {
    std::lock_guard lock(mu_);
    if (current_) current_->stop();
  }

  /// Joins every incarnation thread; returns how many were reaped.
  std::uint32_t reap() {
    std::uint32_t reaped = 0;
    for (auto& inc : retired_) {
      if (inc->join_thread()) ++reaped;
    }
    if (current_ && current_->join_thread()) ++reaped;
    return reaped;
  }

  // ---- post-run observers (threads joined, no locking needed) ----

  [[nodiscard]] bool alive() const { return alive_; }
  [[nodiscard]] bool started() const { return started_; }
  [[nodiscard]] bool ever_crashed() const { return ever_crashed_; }
  [[nodiscard]] std::uint32_t report_streams() const {
    std::uint32_t n = 0;
    for (const auto& inc : retired_) {
      if (inc->opened_report_stream()) ++n;
    }
    if (current_ && current_->opened_report_stream()) ++n;
    return n;
  }
  [[nodiscard]] const Incarnation* current() const { return current_.get(); }

  /// Work ledger across all incarnations, crashed ones included, mirroring
  /// SimCluster's merged_ledger (kIncarnations counts one per life).
  [[nodiscard]] core::WorkLedger merged_ledger() const {
    core::WorkLedger total;
    for (const auto& inc : retired_) total.add(inc->worker().work_snapshot());
    if (current_) total.add(current_->worker().work_snapshot());
    return total;
  }

  void merge_expansions(ExpansionSet& into) const {
    for (const auto& inc : retired_) {
      into.insert(inc->expansions().begin(), inc->expansions().end());
    }
    if (current_) {
      into.insert(current_->expansions().begin(), current_->expansions().end());
    }
  }

 private:
  void spawn_incarnation_locked(bool with_root);

  RtCluster* cluster_;
  core::NodeId id_;
  std::uint64_t seed_;

  std::mutex mu_;
  std::uint64_t epoch_ = 0;
  std::atomic<std::uint64_t> epoch_atomic_{0};
  bool alive_ = true;
  bool started_ = false;
  bool halted_current_ = false;
  bool counts_toward_live_ = true;
  bool ever_crashed_ = false;
  std::shared_ptr<Incarnation> current_;
  std::vector<std::shared_ptr<Incarnation>> retired_;

  friend class RtCluster;
  friend class Incarnation;
};

class RtCluster final : public fault::IFaultBackend, public fault::IFaultClock {
 public:
  RtCluster(const bnb::IProblemModel& model, const RtConfig& config);

  RtResult run();

  [[nodiscard]] double now_wall() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  // ---- fault::IFaultBackend ----
  void crash(std::uint32_t node) override { hosts_[node]->inject_crash(); }
  void revive(std::uint32_t node) override { hosts_[node]->inject_revive(); }
  void join(std::uint32_t node) override { hosts_[node]->join(node == 0); }
  void abandon_join(std::uint32_t node) override {
    hosts_[node]->abandon_join();
  }
  void set_partition(const sim::Partition& partition) override {
    partitions_.push_back(partition);  // pre-run only; read-only afterwards
  }
  void set_loss_rule(const sim::LossRule& rule) override {
    net_.loss_rules.push_back(rule);  // pre-run only; read-only afterwards
  }

  // ---- fault::IFaultClock ----
  void call_at(double at, sim::Callback fn) override {
    scheduler_.schedule(at, std::move(fn));
  }

  /// Ships one already-encoded message through the loss/partition model;
  /// surviving messages decode at the receiver after the configured latency.
  void transport_send(std::uint32_t from, core::NodeId to, support::ByteWriter w);

  const bnb::IProblemModel& model_;
  RtConfig config_;
  std::uint32_t population_ = 0;
  Clock::time_point start_{};
  Scheduler scheduler_;
  std::optional<fault::FaultDriver> driver_;
  std::vector<std::unique_ptr<WorkerHost>> hosts_;

  // Transport state: installed by the driver before the run, immutable after.
  sim::NetConfig net_;
  std::vector<sim::Partition> partitions_;

  /// Per-source-node draw stream for loss and jitter. A channel is normally
  /// touched only by its node's incarnation thread, but a crashed
  /// incarnation can overlap its successor for one in-flight handler, so
  /// draws stay behind a (virtually uncontended) mutex.
  struct Channel {
    std::mutex mu;
    support::Rng rng{1};
  };
  std::vector<std::unique_ptr<Channel>> channels_;

  // Membership: members that joined so far. Crashed members stay listed
  // (failures are not detectable, Section 4).
  std::mutex membership_mu_;
  std::vector<core::NodeId> joined_;
  std::atomic<std::uint64_t> membership_version_{0};

  // Run-completion accounting (mirrors SimCluster's live set).
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  std::uint32_t live_count_ = 0;
  std::uint32_t live_halted_ = 0;

  std::atomic<std::uint64_t> net_sent_{0};
  std::atomic<std::uint64_t> net_delivered_{0};
  std::atomic<std::uint64_t> net_lost_{0};
  std::atomic<std::uint64_t> net_partitioned_{0};
  std::atomic<std::uint64_t> net_bytes_sent_{0};
  std::atomic<std::uint64_t> net_bytes_delivered_{0};
  std::atomic<std::uint64_t> net_decode_errors_{0};
};

// ---------------------------------------------------------------------------
// Incarnation
// ---------------------------------------------------------------------------

Incarnation::Incarnation(WorkerHost* host, std::uint64_t epoch, std::uint64_t seed)
    : host_(host), epoch_(epoch), rng_(seed) {
  worker_.emplace(host->id(), &host->cluster_->model_,
                  &host->cluster_->config_.worker, this);
}

double Incarnation::now() const { return host_->cluster_->now_wall(); }

void Incarnation::send(core::NodeId to, core::Message msg) {
  if (stopped()) return;  // crash-stop: a dead incarnation sends nothing
  // Real wire crossing: frame-encode here, decode at the receiver. The
  // delta state is this incarnation's own and is touched only by its thread.
  support::ByteWriter w;
  core::encode_frame(msg, &delta_, w);
  core::WorkLedger& work = worker_->work();
  ++work[core::WorkItem::kMsgsSent];
  work[core::WorkItem::kWireBytesSent] += w.size();
  host_->cluster_->transport_send(host_->id(), to, std::move(w));
}

void Incarnation::set_timer(core::TimerKind kind, double delay, std::uint64_t gen) {
  RtCluster* cluster = host_->cluster_;
  cluster->scheduler_.schedule(
      cluster->now_wall() + delay,
      [host = host_, kind, gen, epoch = epoch_]() {
        host->accept_timer(kind, gen, epoch);
      });
}

void Incarnation::charge(core::CostKind kind, double seconds) {
  if (seconds <= 0.0) return;
  worker_->work().time(kind) += seconds;
  const double scale = host_->cluster_->config_.time_scale;
  if (kind == core::CostKind::kBB && scale > 0.0) {
    // Emulate the computation (model costs are virtual seconds). A crash
    // injection interrupts the sleep: a killed worker stops burning wall
    // time mid-subproblem.
    std::unique_lock lock(sleep_mu_);
    sleep_cv_.wait_for(lock, std::chrono::duration<double>(seconds * scale),
                       [this] { return stopped(); });
  }
}

const std::vector<core::NodeId>& Incarnation::peers() const {
  RtCluster* cluster = host_->cluster_;
  const std::uint64_t version =
      cluster->membership_version_.load(std::memory_order_acquire);
  if (peers_version_ != version) {
    peers_version_ = version;
    peers_cache_.clear();
    std::lock_guard lock(cluster->membership_mu_);
    for (const core::NodeId id : cluster->joined_) {
      if (id != host_->id()) peers_cache_.push_back(id);
    }
  }
  return peers_cache_;
}

void Incarnation::notify_halted() { host_->on_incarnation_halted(epoch_); }

// ---------------------------------------------------------------------------
// WorkerHost
// ---------------------------------------------------------------------------

void WorkerHost::spawn_incarnation_locked(bool with_root) {
  current_ = std::make_shared<Incarnation>(
      this, epoch_, support::mix64(seed_, epoch_));
  current_->start(with_root);
}

void WorkerHost::join(bool with_root) {
  std::lock_guard lock(mu_);
  if (!alive_ || started_) return;  // crashed before joining / double join
  started_ = true;
  {
    std::lock_guard mlock(cluster_->membership_mu_);
    cluster_->joined_.push_back(id_);
  }
  cluster_->membership_version_.fetch_add(1, std::memory_order_acq_rel);
  spawn_incarnation_locked(with_root);
}

void WorkerHost::inject_crash() {
  bool left = false;
  {
    std::lock_guard lock(mu_);
    if (!alive_ || halted_current_) return;
    alive_ = false;
    ever_crashed_ = true;
    if (current_) {
      current_->stop();
      retired_.push_back(std::move(current_));
    }
    if (counts_toward_live_) {
      counts_toward_live_ = false;
      left = true;
    }
  }
  if (left) {
    {
      std::lock_guard lock(cluster_->done_mutex_);
      --cluster_->live_count_;
    }
    cluster_->done_cv_.notify_all();
  }
}

void WorkerHost::inject_revive() {
  bool rejoined = false;
  {
    std::lock_guard lock(mu_);
    // Only a crashed, previously started member re-enters; a revive aimed at
    // a live member (its crash was skipped because it had already halted) is
    // a no-op.
    if (alive_ || !started_) return;
    ++epoch_;
    epoch_atomic_.store(epoch_, std::memory_order_release);
    alive_ = true;
    halted_current_ = false;
    spawn_incarnation_locked(false);
    if (!counts_toward_live_) {
      counts_toward_live_ = true;
      rejoined = true;
    }
  }
  if (rejoined) {
    {
      std::lock_guard lock(cluster_->done_mutex_);
      ++cluster_->live_count_;
    }
    cluster_->done_cv_.notify_all();
  }
}

void WorkerHost::abandon_join() {
  bool left = false;
  {
    std::lock_guard lock(mu_);
    if (counts_toward_live_) {
      counts_toward_live_ = false;
      left = true;
    }
  }
  if (left) {
    {
      std::lock_guard lock(cluster_->done_mutex_);
      --cluster_->live_count_;
    }
    cluster_->done_cv_.notify_all();
  }
}

void WorkerHost::accept_message(core::Message msg, std::size_t bytes,
                                std::uint64_t epoch) {
  std::lock_guard lock(mu_);
  if (!current_ || epoch != epoch_ || !alive_ || !started_) return;
  current_->mailbox().push(Event{InboundMsg{std::move(msg), bytes}});
}

void WorkerHost::accept_timer(core::TimerKind kind, std::uint64_t gen,
                              std::uint64_t epoch) {
  std::lock_guard lock(mu_);
  if (!current_ || epoch != epoch_ || !alive_ || !started_) return;
  current_->mailbox().push(Event{TimerFire{kind, gen}});
}

void WorkerHost::on_incarnation_halted(std::uint64_t epoch) {
  {
    std::lock_guard lock(mu_);
    if (epoch != epoch_ || !alive_) return;  // a dead incarnation's last word
    halted_current_ = true;
  }
  {
    std::lock_guard lock(cluster_->done_mutex_);
    ++cluster_->live_halted_;
  }
  cluster_->done_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// RtCluster
// ---------------------------------------------------------------------------

RtCluster::RtCluster(const bnb::IProblemModel& model, const RtConfig& config)
    : model_(model), config_(config), net_(config.net) {
  FTBB_CHECK(config_.workers >= 1);
  population_ = std::max(config_.workers, config_.faults.population);
  support::Rng master(config_.seed);
  for (core::NodeId id = 0; id < population_; ++id) {
    hosts_.push_back(
        std::make_unique<WorkerHost>(this, id, master.split(id).next()));
    channels_.push_back(std::make_unique<Channel>());
    channels_.back()->rng = master.split(id).split(0x6e6574);
  }
  live_count_ = population_;

  fault::FaultSchedule schedule = config_.faults;
  schedule.population = population_;
  driver_.emplace(std::move(schedule), this, this);
}

void RtCluster::transport_send(std::uint32_t from, core::NodeId to,
                               support::ByteWriter w) {
  const std::size_t bytes = w.size();
  net_sent_.fetch_add(1, std::memory_order_relaxed);
  net_bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
  const double now = now_wall();
  if (sim::partition_blocks(partitions_, from, to, now)) {
    net_partitioned_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  double latency;
  {
    Channel& channel = *channels_[from];
    std::lock_guard lock(channel.mu);
    const double p = sim::combined_loss_probability(net_, from, to, now);
    if (p > 0.0 && channel.rng.chance(p)) {
      net_lost_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // Same per-pair latency-class selection as the simulated Network, in
    // wall time (flat configs reduce to the top-level parameters).
    const sim::TierLatency link = sim::link_latency(net_, from, to);
    latency = link.latency_fixed +
              link.latency_per_byte * static_cast<double>(bytes);
    if (link.jitter_frac > 0.0) {
      latency *= channel.rng.uniform(1.0 - link.jitter_frac,
                                     1.0 + link.jitter_frac);
    }
  }
  // Capture the destination incarnation at send time: mail addressed to an
  // incarnation that dies in flight is dropped on arrival (crash-stop).
  // Both delivered counters tick at arrival, before the epoch guard —
  // wire-level delivery, exactly where the simulated Network counts it.
  const std::uint64_t dest_epoch = hosts_[to]->epoch();
  scheduler_.schedule(
      now + latency, [this, to, dest_epoch, bytes, buf = w.take()]() {
        net_delivered_.fetch_add(1, std::memory_order_relaxed);
        net_bytes_delivered_.fetch_add(bytes, std::memory_order_relaxed);
        core::FrameDecode frame = core::decode_frame(buf);
        if (!frame.ok()) {
          // A frame that fails to decode is a network event, not a fault:
          // count it and drop it, exactly like a lost message.
          net_decode_errors_.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        hosts_[to]->accept_message(std::move(frame.msg), bytes, dest_epoch);
      });
}

RtResult RtCluster::run() {
  driver_->set_fire_listener([this] {
    {
      std::lock_guard lock(done_mutex_);
    }
    done_cv_.notify_all();
  });
  start_ = Clock::now();
  // Arm before the dispatch thread starts: every injection (including the
  // t=0 joins that spawn the initial incarnations) queues in deadline order.
  driver_->arm(config_.wall_timeout);
  scheduler_.start(start_);

  RtResult result;
  {
    // A fast computation must not conclude out from under a pending
    // injection: a scheduled crash (or a churn join) that has not landed yet
    // holds the run open, else the configured fault would silently never
    // happen.
    std::unique_lock lock(done_mutex_);
    result.hit_time_limit = !done_cv_.wait_for(
        lock, std::chrono::duration<double>(config_.wall_timeout), [this] {
          return live_halted_ >= live_count_ &&
                 driver_->pending_injections() == 0;
        });
  }
  result.makespan = now_wall();

  // Shut everything down. The scheduler stops first — a late injection
  // dispatched during teardown could otherwise spawn a fresh incarnation
  // *after* its host was stopped, leaving a thread blocked in its mailbox
  // forever. Once the scheduler thread is joined nothing spawns anymore;
  // stop flags + poison pills then unblock every worker thread (including
  // ones mid-sleep in a charged busy period), and every incarnation thread
  // ever spawned is reaped.
  scheduler_.stop();
  for (auto& host : hosts_) host->stop_current();
  for (auto& host : hosts_) result.reaped += host->reap();

  std::uint32_t live = 0;
  std::uint32_t halted = 0;
  ExpansionSet merged;
  for (auto& host : hosts_) {
    result.worker_ledgers.push_back(host->merged_ledger());
    result.work.add(result.worker_ledgers.back());
    result.crashed.push_back(host->ever_crashed());
    result.report_streams_per_worker.push_back(host->report_streams());
    host->merge_expansions(merged);
    if (host->alive() && host->started()) {
      ++live;
      const Incarnation* inc = host->current();
      if (inc != nullptr && inc->worker().halted()) {
        ++halted;
        if (inc->worker().incumbent() < result.solution) {
          result.solution = inc->worker().incumbent();
          result.solution_found = true;
        }
      }
    }
  }
  result.all_live_halted = live > 0 && live == halted;
  result.total_expanded = result.work[core::WorkItem::kExpansions];
  result.unique_expanded = merged.size();
  result.redundant_expansions = result.total_expanded - result.unique_expanded;
  result.work[core::WorkItem::kRedundantExpansions] = result.redundant_expansions;
  result.net.messages_sent = net_sent_.load();
  result.net.messages_delivered = net_delivered_.load();
  result.net.messages_lost = net_lost_.load();
  result.net.messages_partitioned = net_partitioned_.load();
  result.net.bytes_sent = net_bytes_sent_.load();
  result.net.bytes_delivered = net_bytes_delivered_.load();
  result.decode_errors = net_decode_errors_.load();
  return result;
}

}  // namespace

RtResult Cluster::run(const bnb::IProblemModel& model, const RtConfig& config) {
  RtCluster cluster(model, config);
  return cluster.run();
}

}  // namespace ftbb::rt
