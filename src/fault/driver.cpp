#include "fault/driver.hpp"

#include <utility>

#include "support/check.hpp"

namespace ftbb::fault {

FaultDriver::FaultDriver(FaultSchedule schedule, IFaultBackend* backend,
                         IFaultClock* clock)
    : schedule_(std::move(schedule)), backend_(backend), clock_(clock) {
  FTBB_CHECK(backend_ != nullptr && clock_ != nullptr);
}

template <typename F>
void FaultDriver::schedule_injection(double at, F injection) {
  pending_.fetch_add(1, std::memory_order_acq_rel);
  clock_->call_at(at, [this, injection]() {
    injection();
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    if (on_fire_) on_fire_();
  });
}

void FaultDriver::arm(double horizon) {
  FTBB_CHECK_MSG(!armed_, "a FaultDriver arms exactly once");
  armed_ = true;
  FTBB_CHECK(schedule_.population >= 1);
  FTBB_CHECK_MSG(schedule_.join_times.empty() ||
                     schedule_.join_times.size() == schedule_.population,
                 "join_times must be empty or one entry per member");

  for (const sim::LossRule& rule : schedule_.loss_rules) {
    backend_->set_loss_rule(rule);
  }
  for (const sim::Partition& partition : schedule_.partitions) {
    backend_->set_partition(partition);
  }
  for (const CrashAt& crash : schedule_.crashes) {
    FTBB_CHECK(crash.node < schedule_.population);
    schedule_injection(crash.time,
                       [this, node = crash.node]() { backend_->crash(node); });
  }
  for (const ReviveAt& revive : schedule_.revives) {
    FTBB_CHECK(revive.node < schedule_.population);
    schedule_injection(revive.time,
                       [this, node = revive.node]() { backend_->revive(node); });
  }
  for (std::uint32_t node = 0; node < schedule_.population; ++node) {
    const double when =
        schedule_.join_times.empty() ? 0.0 : schedule_.join_times[node];
    if (when >= horizon) {
      // This member can never participate; do not hold the run open for it
      // (and leave no stray far-future event in the queue).
      backend_->abandon_join(node);
      continue;
    }
    schedule_injection(when, [this, node]() { backend_->join(node); });
  }
}

}  // namespace ftbb::fault
