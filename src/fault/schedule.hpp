// The compiled form of a FaultPlan: one population-resolved, validated
// injection schedule, independent of any execution substrate.
//
// A FaultPlan is authored against protocol node ids with open-ended
// conveniences (split_halves / isolate windows that need the population to
// materialize, churn arrivals that extend the population). Compiling it
// resolves all of that once — population, join-time vector, explicit
// partition groups, validation — so every backend consumes the same
// normalized schedule instead of re-deriving it. This is the layer the
// application-level fault-tolerance literature argues for: the fault model
// lives above the substrates, and each substrate only needs the narrow
// capability surface in driver.hpp to replay it.
//
// Substrates whose network ids differ from protocol ids (the centralized
// baseline inserts the manager at network id 0) replay remapped() instead of
// hand-shifting every spec.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/fault_plan.hpp"
#include "sim/network.hpp"

namespace ftbb::fault {

struct CrashAt {
  std::uint32_t node = 0;
  double time = 0.0;
};

struct ReviveAt {
  std::uint32_t node = 0;
  double time = 0.0;
};

struct FaultSchedule {
  /// Protocol population: the initial workers plus every churn arrival the
  /// plan references. Backends size their member tables from this.
  std::uint32_t population = 0;

  std::vector<CrashAt> crashes;
  std::vector<ReviveAt> revives;
  /// Empty (everyone joins at t=0), or one entry per member.
  std::vector<double> join_times;
  std::vector<sim::Partition> partitions;
  std::vector<sim::LossRule> loss_rules;

  /// The plan's canonical time-ordered event list, resolved (split windows
  /// materialized). Reports embed this, so it is part of the compile
  /// artifact rather than re-derived per backend.
  std::vector<sim::FaultPlan::TimedFault> timeline;

  /// Resolves `plan` against at least `min_workers` members: computes the
  /// population, materializes pending partition windows, validates node
  /// ranges / rejoin ordering / join times (node 0 seeds the computation and
  /// must join at 0; churn arrivals beyond the initial population need a
  /// join time). Aborts via FTBB_CHECK on an invalid plan.
  [[nodiscard]] static FaultSchedule compile(const sim::FaultPlan& plan,
                                             std::uint32_t min_workers);

  /// The same schedule expressed against network ids shifted up by
  /// `id_offset`, self-consistent for a FaultDriver: infrastructure nodes
  /// occupy [0, id_offset), join at t=0, share partition group with protocol
  /// node 0 and are never crashed by a plan; the population grows by the
  /// offset, and join_times (if any) gain the infrastructure's entries in
  /// front.
  [[nodiscard]] FaultSchedule remapped(std::uint32_t id_offset) const;

  [[nodiscard]] bool empty() const {
    return crashes.empty() && revives.empty() && join_times.empty() &&
           partitions.empty() && loss_rules.empty();
  }
};

}  // namespace ftbb::fault
