// Centralized manager/worker B&B baseline (paper Section 3).
//
// "Many investigations of parallel B&B ... have adopted a centralized
// approach in which a single manager maintains the tree and hands out tasks
// to workers. While clearly not scalable, this approach simplifies the
// management of information... Reliability can be achieved through
// checkpointing, but this approach assumes that there exists at least one
// reliable process/machine."
//
// The manager holds the global pool and the incumbent; workers fetch task
// batches, expand them, and return the children. Worker crashes are handled
// by reissuing outstanding batches after a timeout. The manager itself is
// the single point of failure: without checkpointing its crash ends the
// computation; with checkpointing it restarts from the last snapshot after
// a delay, losing the progress since (both modes are measured in E11).
#pragma once

#include <cstdint>

#include "bnb/problem.hpp"
#include "fault/schedule.hpp"
#include "sim/network.hpp"
#include "sim/outcome.hpp"

namespace ftbb::central {

struct CentralConfig {
  std::uint32_t batch_size = 4;      // subproblems per task batch
  double reissue_timeout = 2.0;      // silence after which a batch is reissued
  double audit_interval = 0.5;
  bool enable_elimination = true;
  /// Simulation dispatch threads (> 1 shards node event streams; results
  /// stay bit-identical); 0 consults FTBB_SIM_THREADS, else sequential.
  std::uint32_t sim_threads = 0;
  // -- manager fault tolerance --
  bool checkpointing = false;
  double checkpoint_interval = 1.0;
  double restart_delay = 1.0;  // manager recovery time after a crash
};

/// `worker_ledgers` is indexed by network id, so ledger 0 is the manager's.
/// Its kMsgsReceived is the bottleneck metric (the messages the manager
/// handles), its kRecoveries counts the batches it reissued, and its
/// kIncarnations is 1 plus one per checkpoint restart. A worker counts its
/// fetches in kWorkRequestsSent and the batches it accepts in
/// kGrantsReceived; the manager counts the batches it issues in kGrantsGiven
/// and their subproblems in kProblemsGiven.
struct CentralResult : sim::RunOutcome {
  bool completed = false;  // the manager concluded the computation
};

class CentralSim {
 public:
  /// `workers` excludes the manager. `faults` is in network ids: node 0 is
  /// the manager and nodes 1..N the workers, i.e. a protocol schedule's
  /// remapped(1); a larger population raises the worker count. A crash of
  /// node 0 crashes the manager. Reviving node 0 is rejected: manager
  /// recovery is checkpoint-based (CentralConfig::checkpointing), not a
  /// blank restart.
  static CentralResult run(const bnb::IProblemModel& model, std::uint32_t workers,
                           const CentralConfig& config, const sim::NetConfig& net,
                           fault::FaultSchedule faults, double time_limit,
                           std::uint64_t seed);
};

}  // namespace ftbb::central
