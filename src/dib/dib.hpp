// DIB-style baseline: Distributed Implementation of Backtracking
// (Finkel & Manber 1987), the only prior fully decentralized fault-tolerant
// B&B the paper compares against (Sections 3 and 5.5).
//
// Mechanism reproduced here: work moves between machines as *donations*;
// each machine remembers, for every problem it is responsible for, which
// machine it gave it to ("each machine memorizes the problems for which it
// is responsible, as well as the machines to which it sent problems"). The
// completion of a problem is reported to the machine the problem came from.
// A donor that concludes a donated problem is still unsolved (here: a
// donation timeout — the failure-suspicion knob) redoes that work itself.
//
// The two structural weaknesses the paper points out are faithfully present:
//   * the machine holding the root of the responsibility hierarchy must
//     survive — if it fails, termination can never be concluded;
//   * a failed machine loses not only its local unreported work but also the
//     bookkeeping for problems it donated onward, so its donor must redo the
//     *entire* job, including parts third machines already finished.
//
// Timing is modeled more coarsely than for the main algorithm (expansion
// busy periods only); the DIB comparison in the paper is qualitative.
#pragma once

#include <cstdint>
#include <vector>

#include "bnb/problem.hpp"
#include "fault/schedule.hpp"
#include "sim/network.hpp"
#include "sim/outcome.hpp"

namespace ftbb::dib {

struct DibConfig {
  double work_request_timeout = 0.05;
  double request_backoff = 0.02;
  double audit_interval = 0.5;    // how often donors re-check donations
  double donation_timeout = 2.0;  // silence after which a donee is presumed dead
  std::uint32_t min_pool_to_grant = 2;
  bool enable_elimination = true;
  /// Simulation dispatch threads (> 1 shards machine event streams; results
  /// stay bit-identical); 0 consults FTBB_SIM_THREADS, else sequential.
  std::uint32_t sim_threads = 0;
};

struct DibResult : sim::RunOutcome {
  bool completed = false;  // root machine concluded the computation
  std::uint64_t donations = 0;
  std::uint64_t donation_redos = 0;  // audit decided to redo a donation
  std::vector<std::uint64_t> expanded_per_machine;
};

class DibSim {
 public:
  /// Machine ids are 0-based; machine 0 holds the root of the
  /// responsibility hierarchy and must join at time 0. `faults` is in those
  /// ids; a larger population raises the machine count. A revived machine
  /// re-enters empty (pool, job list and donation ledger lost), so its donor
  /// still redoes the donated work, DIB's structural weakness; reviving
  /// machine 0 cannot restore the root job, so termination stays
  /// unconcludable. The makespan is the root machine's conclusion (or the
  /// limit).
  static DibResult run(const bnb::IProblemModel& model, std::uint32_t machines,
                       const DibConfig& config, const sim::NetConfig& net,
                       fault::FaultSchedule faults, double time_limit,
                       std::uint64_t seed);
};

}  // namespace ftbb::dib
