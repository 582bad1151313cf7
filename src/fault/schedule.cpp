#include "fault/schedule.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace ftbb::fault {

FaultSchedule FaultSchedule::compile(const sim::FaultPlan& plan,
                                     std::uint32_t min_workers) {
  FaultSchedule schedule;
  const std::int64_t top = plan.max_node();
  schedule.population = std::max<std::uint32_t>(
      min_workers, top < 0 ? 0 : static_cast<std::uint32_t>(top) + 1);

  // Materialize population-dependent windows and validate node ranges /
  // rejoin ordering on a resolved copy; the timeline is rendered from it so
  // reports see explicit groups, not pending conveniences.
  sim::FaultPlan resolved = plan;
  resolved.for_workers(schedule.population);
  schedule.timeline = resolved.timeline();

  for (const sim::FaultPlan::CrashSpec& c : resolved.crashes()) {
    schedule.crashes.push_back(CrashAt{c.node, c.time});
  }
  for (const sim::FaultPlan::RejoinSpec& r : resolved.rejoins()) {
    schedule.revives.push_back(ReviveAt{r.node, r.time});
  }
  for (const sim::FaultPlan::PartitionSpec& p : resolved.partitions()) {
    schedule.partitions.push_back(sim::Partition{p.t0, p.t1, p.group_of});
  }
  schedule.loss_rules = resolved.loss_rules();

  if (!resolved.joins().empty()) {
    schedule.join_times.assign(schedule.population, 0.0);
    std::vector<bool> has_join(schedule.population, false);
    for (const sim::FaultPlan::JoinSpec& j : resolved.joins()) {
      schedule.join_times[j.node] = j.time;
      has_join[j.node] = true;
    }
    FTBB_CHECK_MSG(!has_join[0] || schedule.join_times[0] == 0.0,
                   "node 0 seeds the computation and must join at time 0");
    for (std::uint32_t n = min_workers; n < schedule.population; ++n) {
      FTBB_CHECK_MSG(has_join[n],
                     "churn node beyond the initial population needs a join time");
    }
  }
  return schedule;
}

FaultSchedule FaultSchedule::remapped(std::uint32_t id_offset) const {
  FaultSchedule shifted = *this;
  if (id_offset == 0) return shifted;
  shifted.population += id_offset;
  if (!shifted.join_times.empty()) {
    shifted.join_times.insert(shifted.join_times.begin(), id_offset, 0.0);
  }
  for (CrashAt& c : shifted.crashes) c.node += id_offset;
  for (ReviveAt& r : shifted.revives) r.node += id_offset;
  for (sim::Partition& p : shifted.partitions) {
    std::vector<int> group_of(p.group_of.size() + id_offset);
    const int front = p.group_of.empty() ? 0 : p.group_of[0];
    for (std::uint32_t i = 0; i < id_offset; ++i) group_of[i] = front;
    for (std::size_t i = 0; i < p.group_of.size(); ++i) {
      group_of[i + id_offset] = p.group_of[i];
    }
    p.group_of = std::move(group_of);
  }
  for (sim::LossRule& rule : shifted.loss_rules) {
    if (rule.from != sim::LossRule::kAnyNode) {
      rule.from += static_cast<std::int32_t>(id_offset);
    }
    if (rule.to != sim::LossRule::kAnyNode) {
      rule.to += static_cast<std::int32_t>(id_offset);
    }
  }
  return shifted;
}

}  // namespace ftbb::fault
