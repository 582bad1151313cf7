// Backend-agnostic FaultPlan execution.
//
// A FaultDriver interprets one compiled FaultSchedule against any execution
// substrate through two narrow abstractions:
//
//   * IFaultBackend — the capability surface a runtime must expose to be
//     fault-injectable: crash(node), revive(node), join(node) plus the
//     static window installers set_partition()/set_loss_rule(). All four
//     substrates implement it: the discrete-event SimCluster, the
//     centralized and DIB baselines (in their network ids; the central
//     manager is node 0), and the thread-backed rt::Cluster. What "crash"
//     means (dropping a virtual host, ending the manager, tearing down an OS
//     thread) stays the backend's business.
//
//   * IFaultClock — where injection deadlines live: virtual simulation time
//     (kernel.at on the control stream) or wall-clock deadline scheduling.
//     The driver never owns a thread or a queue of its own, so arming is
//     cheap and the backend's own scheduler keeps full control of ordering.
//
// The driver also owns the two shutdown subtleties that used to be bespoke
// runtime code: every timed injection counts as *pending* until it fired, so
// a fast computation cannot conclude out from under a scheduled fault (the
// configured adversity would silently never land), and injections aimed at
// nodes that already left (crash of a dead node, revive of a live one) are
// delivered anyway and resolved by the backend's idempotent capability
// methods — no caller-side dedupe required.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "fault/schedule.hpp"
#include "sim/callback.hpp"

namespace ftbb::fault {

/// What a substrate must be able to do for a FaultSchedule to replay on it.
/// All methods are invoked from the clock's dispatch context (the simulator's
/// control stream, or the runtime's scheduler thread) and must tolerate
/// redundant calls: crash() of an already-dead or already-halted node,
/// revive() of a live one, and join() of a crashed one are no-ops.
class IFaultBackend {
 public:
  virtual ~IFaultBackend() = default;

  /// Crash-stop failure: the node's state vanishes and it falls silent.
  virtual void crash(std::uint32_t node) = 0;

  /// A previously crashed node re-enters as a fresh, empty incarnation.
  virtual void revive(std::uint32_t node) = 0;

  /// Membership arrival (t=0 for the initial population, later for churn).
  virtual void join(std::uint32_t node) = 0;

  /// The node's join time lies at/beyond the horizon: it can never
  /// participate, and the run must not be held open waiting for it.
  virtual void abandon_join(std::uint32_t node) = 0;

  /// Installs one temporary partition window (self-contained: carries its
  /// own [t0, t1)). Called while the run is quiescent, before any event.
  virtual void set_partition(const sim::Partition& partition) = 0;

  /// Installs one windowed (optionally per-link) loss rule, appended after
  /// the backend's base network rules.
  virtual void set_loss_rule(const sim::LossRule& rule) = 0;
};

/// Deadline scheduling for timed injections. `call_at` runs `fn` at absolute
/// time `at` on the substrate's control context; times are virtual seconds
/// under a simulator clock and wall seconds since run start under a
/// real-time clock. The callback type is the kernel's move-only
/// sim::Callback so simulator clocks can forward it into the event queue
/// without re-wrapping.
class IFaultClock {
 public:
  virtual ~IFaultClock() = default;
  virtual void call_at(double at, sim::Callback fn) = 0;
};

class FaultDriver {
 public:
  /// The driver keeps references only; backend and clock must outlive it.
  FaultDriver(FaultSchedule schedule, IFaultBackend* backend,
              IFaultClock* clock);

  /// Installs the windowed rules and schedules every timed injection.
  /// Members whose join time is at/beyond `horizon` are abandoned instead of
  /// scheduled. Injection scheduling order is fixed — crashes, revives,
  /// joins in member order — so a deterministic clock yields a
  /// deterministic event stream, and a crash at a member's exact join
  /// instant lands first: that member never joins. Call exactly once,
  /// before the run starts.
  void arm(double horizon);

  /// Scheduled injections that have not fired yet. Wall-clock runtimes gate
  /// shutdown on this reaching zero: all live workers halting while a crash
  /// or a late join is still pending does not conclude the run.
  [[nodiscard]] std::uint32_t pending_injections() const {
    return pending_.load(std::memory_order_acquire);
  }

  /// Optional hook invoked after each injection fires (after the backend
  /// call, with the pending count already decremented). Wall-clock runtimes
  /// use it to re-check their shutdown condition.
  void set_fire_listener(std::function<void()> listener) {
    on_fire_ = std::move(listener);
  }

  [[nodiscard]] const FaultSchedule& schedule() const { return schedule_; }

 private:
  /// Counts `injection` pending and has the clock run it at `at`. The
  /// wrapper holds the callable by its own type (24 B for an injection), so
  /// each injection is one inline Callback, not a Callback nested in one.
  template <typename F>
  void schedule_injection(double at, F injection);

  FaultSchedule schedule_;
  IFaultBackend* backend_;
  IFaultClock* clock_;
  std::atomic<std::uint32_t> pending_{0};
  std::function<void()> on_fire_;
  bool armed_ = false;
};

}  // namespace ftbb::fault
