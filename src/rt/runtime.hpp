// Real-time message-passing runtime (the MPI-on-one-box substitute).
//
// The paper's protocol is substrate independent; this runtime hosts the
// *identical* core::BnbWorker state machines on real threads with real
// queues, demonstrating the algorithm outside simulated time (the closest
// equivalent of an MPI run on one machine, which the reproduction notes call
// for; no MPI implementation is available offline, so the message-passing
// layer is built here: per-process mailboxes plus a wall-clock deadline
// scheduler that applies configurable latency and loss — the paper's network
// assumptions — before enqueueing).
//
// Fault parity with the simulator: the runtime is a first-class
// fault::IFaultBackend, so the same compiled FaultSchedule (crash, rejoin,
// partition + heal, windowed per-link loss, membership churn) that drives
// the discrete-event backends replays here against wall-clock deadlines.
// Crashed workers are torn down as whole incarnations (thread, mailbox,
// worker state) and revived as fresh ones; epoch guards drop messages and
// timers addressed to dead incarnations, and per-incarnation ledgers merge in
// the results exactly as SimCluster merges them. The in-process transport
// evaluates the same windowed loss rules and partition groups as the
// simulated Network (shared helpers in sim/network.hpp), against wall
// seconds since run start.
//
// Messages actually cross the wire format: they are encoded to bytes at the
// sender and decoded at the receiver.
//
// Unlike the simulator, runs are not deterministic (thread scheduling);
// tests assert protocol correctness — exact optimum, termination, crash and
// churn survival — not timing.
#pragma once

#include <cstdint>
#include <vector>

#include "bnb/problem.hpp"
#include "core/worker.hpp"
#include "fault/schedule.hpp"
#include "sim/network.hpp"
#include "sim/outcome.hpp"

namespace ftbb::rt {

struct RtConfig {
  /// Initial population floor; the fault schedule's population (churn
  /// arrivals) can raise the number of hosted members.
  std::uint32_t workers = 4;
  core::WorkerConfig worker;
  /// Wall seconds slept per virtual second of B&B cost (model costs are
  /// virtual; scale them down to keep runs quick).
  double time_scale = 1.0;
  /// Latency / jitter / loss model of the in-process transport, evaluated in
  /// wall seconds since run start (same structure the simulator uses in
  /// virtual time).
  sim::NetConfig net;
  std::uint64_t seed = 1;
  double wall_timeout = 60.0;  // hard cap; hitting it fails the run
  /// Compiled fault schedule; all times are wall seconds since run start.
  /// Joins at/after wall_timeout are abandoned (the member never enters).
  fault::FaultSchedule faults;
};

/// The makespan is in wall seconds, and hit_time_limit means the wall
/// timeout was hit; ledger times and redundant_cost are unscaled model
/// seconds. `net` counts the in-process transport exactly where the
/// simulated Network counts (delivered at arrival, before epoch guards).
struct RtResult : sim::RunOutcome {
  bool all_live_halted = false;
  /// Frames that arrived but failed core::decode_frame (corrupt, truncated,
  /// unknown type...). The transport drops them — a decode failure is a
  /// recoverable network event, never a crash. Zero on a healthy run.
  std::uint64_t decode_errors = 0;
  /// A member's ledger in worker_ledgers folds all its incarnations (crashed
  /// ones' spend included), and work's kIncarnations counts every
  /// incarnation spawned. Real threads make the *values* nondeterministic
  /// run to run; the composition mirrors SimCluster's.
  std::vector<bool> crashed;  // ever crash-injected
  /// Per member: incarnations that opened a report delta chain (sent at
  /// least one report/gossip batch). A worker crashed mid-stream and revived
  /// shows 2 — the revived incarnation restarted from a self-contained
  /// report rather than the dead predecessor's delta base.
  std::vector<std::uint32_t> report_streams_per_worker;
  /// Incarnation hygiene: every spawned worker thread must be joined by the
  /// time the result exists. The chaos-soak test asserts that reaped equals
  /// work[kIncarnations], i.e. churn never leaks a thread.
  std::uint32_t reaped = 0;
};

class Cluster {
 public:
  /// Spawns one thread per live worker incarnation, arms the fault schedule
  /// on a wall-clock deadline scheduler, runs to termination (all live
  /// workers detect completion and every scheduled injection has fired) or
  /// the wall timeout, joins everything, reports.
  static RtResult run(const bnb::IProblemModel& model, const RtConfig& config);
};

}  // namespace ftbb::rt
