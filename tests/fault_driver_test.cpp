// Unit tests of the backend-agnostic fault plane: FaultSchedule::compile
// (population resolution, join-time validation, partition materialization),
// remapped() (the centralized baseline's network-id shift), and FaultDriver
// (capability-call order, the pending-injection gate, horizon-abandoned
// joins) against a recording fake backend and a manual clock.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/driver.hpp"
#include "fault/schedule.hpp"
#include "sim/fault_plan.hpp"

namespace ftbb::fault {
namespace {

using sim::FaultPlan;

/// Records every capability call as a readable line.
class RecordingBackend final : public IFaultBackend {
 public:
  void crash(std::uint32_t node) override { log("crash " + std::to_string(node)); }
  void revive(std::uint32_t node) override { log("revive " + std::to_string(node)); }
  void join(std::uint32_t node) override { log("join " + std::to_string(node)); }
  void abandon_join(std::uint32_t node) override {
    log("abandon " + std::to_string(node));
  }
  void set_partition(const sim::Partition& partition) override {
    log("partition " + std::to_string(partition.group_of.size()));
  }
  void set_loss_rule(const sim::LossRule& rule) override {
    log("loss " + std::to_string(rule.from) + "->" + std::to_string(rule.to));
  }

  std::vector<std::string> calls;

 private:
  void log(std::string line) { calls.push_back(std::move(line)); }
};

/// Queues scheduled closures; the test fires them by hand, in deadline
/// order, like any real clock would.
class ManualClock final : public IFaultClock {
 public:
  void call_at(double at, sim::Callback fn) override {
    pending.push_back({at, std::move(fn)});
  }

  void fire_all_due(double until) {
    // Stable by scheduling order within equal times, like the kernel.
    for (bool fired = true; fired;) {
      fired = false;
      for (std::size_t i = 0; i < pending.size(); ++i) {
        if (pending[i].at <= until) {
          auto fn = std::move(pending[i].fn);
          pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
          fn();
          fired = true;
          break;
        }
      }
    }
  }

  struct Item {
    double at;
    sim::Callback fn;
  };
  std::vector<Item> pending;
};

TEST(FaultSchedule, CompileResolvesPopulationAndJoins) {
  FaultPlan plan;
  plan.churn(4, 2, 0.1, 0.05);  // nodes 4 and 5 arrive late
  plan.crash(5, 0.3);
  plan.split_halves(0.2, 0.4);
  const FaultSchedule schedule = FaultSchedule::compile(plan, 4);
  EXPECT_EQ(schedule.population, 6u);
  ASSERT_EQ(schedule.join_times.size(), 6u);
  EXPECT_EQ(schedule.join_times[0], 0.0);
  EXPECT_DOUBLE_EQ(schedule.join_times[4], 0.1);
  EXPECT_DOUBLE_EQ(schedule.join_times[5], 0.15);
  ASSERT_EQ(schedule.partitions.size(), 1u);
  EXPECT_EQ(schedule.partitions[0].group_of.size(), 6u);  // materialized
  ASSERT_EQ(schedule.crashes.size(), 1u);
  EXPECT_EQ(schedule.crashes[0].node, 5u);
  EXPECT_FALSE(schedule.timeline.empty());
}

TEST(FaultSchedule, RemapsNetworkIds) {
  FaultPlan plan;
  plan.crash(1, 0.1).rejoin(1, 0.2);
  plan.link_loss(0, 2, 0.0, 1.0, 0.5);
  plan.loss(0.0, 1.0, 0.1);  // any-node rule must stay any-node
  plan.partition(0.1, 0.2, {0, 1, 1});
  plan.churn(3, 1, 0.05, 0.0);
  const FaultSchedule schedule = FaultSchedule::compile(plan, 3);
  const FaultSchedule shifted = schedule.remapped(1);

  EXPECT_EQ(shifted.crashes[0].node, 2u);
  EXPECT_EQ(shifted.revives[0].node, 2u);
  EXPECT_EQ(shifted.loss_rules[0].from, 1);
  EXPECT_EQ(shifted.loss_rules[0].to, 3);
  EXPECT_EQ(shifted.loss_rules[1].from, sim::LossRule::kAnyNode);
  EXPECT_EQ(shifted.loss_rules[1].to, sim::LossRule::kAnyNode);
  // The infrastructure node shares protocol node 0's partition group.
  EXPECT_EQ(shifted.partitions[0].group_of, (std::vector<int>{0, 0, 1, 1}));
  // The population grows by the offset, and the infrastructure node joins
  // at t=0 in front of the members' own join times.
  EXPECT_EQ(shifted.population, schedule.population + 1);
  ASSERT_EQ(shifted.join_times.size(), schedule.join_times.size() + 1);
  EXPECT_EQ(shifted.join_times[0], 0.0);
  EXPECT_EQ(std::vector<double>(shifted.join_times.begin() + 1,
                                shifted.join_times.end()),
            schedule.join_times);
}

TEST(FaultDriver, ReplaysARemappedScheduleUpToTheLastProtocolNode) {
  // The centralized baseline replays remapped(1): a crash and a revive of
  // the last protocol node land on the last network node, and the manager
  // (network node 0) joins at t=0 with everyone else.
  FaultPlan plan;
  plan.churn(2, 1, 0.05, 0.0).bounce(2, 0.1, 0.2);
  const FaultSchedule shifted = FaultSchedule::compile(plan, 2).remapped(1);

  RecordingBackend backend;
  ManualClock clock;
  FaultDriver driver(shifted, &backend, &clock);
  driver.arm(100.0);
  EXPECT_EQ(driver.pending_injections(), 6u);  // crash, revive, 4 joins
  clock.fire_all_due(0.05);
  clock.fire_all_due(0.1);
  clock.fire_all_due(0.2);
  EXPECT_EQ(driver.pending_injections(), 0u);
  EXPECT_EQ(backend.calls,
            (std::vector<std::string>{"join 0", "join 1", "join 2", "join 3",
                                      "crash 3", "revive 3"}));
}

TEST(FaultDriver, ArmsInCanonicalOrderAndGatesOnPendingInjections) {
  FaultPlan plan;
  plan.bounce(1, 0.1, 0.3);
  plan.loss(0.0, 1.0, 0.1);
  plan.partition(0.1, 0.2, {0, 1, 1});
  const FaultSchedule schedule = FaultSchedule::compile(plan, 3);

  RecordingBackend backend;
  ManualClock clock;
  FaultDriver driver(schedule, &backend, &clock);
  driver.arm(100.0);

  // Static windows install immediately, rules before partitions.
  ASSERT_GE(backend.calls.size(), 2u);
  EXPECT_EQ(backend.calls[0], "loss -1->-1");
  EXPECT_EQ(backend.calls[1], "partition 3");

  // 1 crash + 1 revive + 3 joins pending.
  EXPECT_EQ(driver.pending_injections(), 5u);

  std::uint32_t fires = 0;
  driver.set_fire_listener([&fires] { ++fires; });

  clock.fire_all_due(0.0);  // the three t=0 joins
  EXPECT_EQ(driver.pending_injections(), 2u);
  EXPECT_EQ(fires, 3u);
  EXPECT_EQ(backend.calls[2], "join 0");
  EXPECT_EQ(backend.calls[3], "join 1");
  EXPECT_EQ(backend.calls[4], "join 2");

  clock.fire_all_due(0.1);  // the crash
  EXPECT_EQ(driver.pending_injections(), 1u);
  EXPECT_EQ(backend.calls.back(), "crash 1");

  clock.fire_all_due(1.0);  // the revive
  EXPECT_EQ(driver.pending_injections(), 0u);
  EXPECT_EQ(backend.calls.back(), "revive 1");
  EXPECT_EQ(fires, 5u);
}

TEST(FaultDriver, JoinsBeyondTheHorizonAreAbandonedNotScheduled) {
  FaultPlan plan;
  plan.churn(2, 2, 50.0, 100.0);  // node 2 at t=50, node 3 at t=150
  const FaultSchedule schedule = FaultSchedule::compile(plan, 2);

  RecordingBackend backend;
  ManualClock clock;
  FaultDriver driver(schedule, &backend, &clock);
  driver.arm(100.0);

  // Nodes 0, 1 (t=0) and 2 (t=50) schedule; node 3 (t=150) is abandoned.
  EXPECT_EQ(driver.pending_injections(), 3u);
  ASSERT_FALSE(backend.calls.empty());
  EXPECT_EQ(backend.calls.back(), "abandon 3");
  clock.fire_all_due(100.0);
  EXPECT_EQ(driver.pending_injections(), 0u);
}

TEST(FaultDriver, InjectionsTakeNoPooledCallbackBlock) {
  // The wrapper that counts an injection pending holds the injection by its
  // own type, so each one is a single inline Callback: arming takes no
  // block from the callback pool.
  constexpr std::uint32_t kCrashes = 64;
  FaultSchedule schedule;
  schedule.population = kCrashes;
  for (std::uint32_t node = 0; node < kCrashes; ++node) {
    schedule.crashes.push_back(CrashAt{node, 0.1});
  }
  RecordingBackend backend;
  ManualClock clock;
  FaultDriver driver(schedule, &backend, &clock);
  const sim::cbdetail::BlockPool& pool = sim::cbdetail::block_pool();
  const std::uint64_t blocks_before = pool.fresh + pool.hits;
  driver.arm(1.0);
  EXPECT_EQ(pool.fresh + pool.hits, blocks_before);
  EXPECT_EQ(driver.pending_injections(), 2 * kCrashes);  // the crashes, the joins
  clock.fire_all_due(1.0);
  EXPECT_EQ(driver.pending_injections(), 0u);
}

TEST(FaultDriverDeath, OutOfRangeNodeAborts) {
  FaultSchedule schedule;
  schedule.population = 2;
  schedule.crashes.push_back(CrashAt{5, 0.1});
  RecordingBackend backend;
  ManualClock clock;
  FaultDriver driver(schedule, &backend, &clock);
  EXPECT_DEATH(driver.arm(1.0), "");
}

}  // namespace
}  // namespace ftbb::fault
