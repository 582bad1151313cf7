#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/scenario.hpp"
#include "support/rng.hpp"

namespace ftbb::sim {
namespace {

TEST(Kernel, DispatchesInTimeOrder) {
  Kernel k;
  std::vector<int> order;
  k.at(3.0, [&] { order.push_back(3); });
  k.at(1.0, [&] { order.push_back(1); });
  k.at(2.0, [&] { order.push_back(2); });
  const auto res = k.run();
  EXPECT_TRUE(res.drained);
  EXPECT_EQ(res.events, 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Kernel, TiesBreakByInsertionOrder) {
  Kernel k;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    k.at(1.0, [&order, i] { order.push_back(i); });
  }
  k.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Kernel, NowAdvancesToEventTime) {
  Kernel k;
  double seen = -1.0;
  k.at(5.5, [&] { seen = k.now(); });
  k.run();
  EXPECT_DOUBLE_EQ(seen, 5.5);
  EXPECT_DOUBLE_EQ(k.now(), 5.5);
}

TEST(Kernel, HandlersCanScheduleMore) {
  Kernel k;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) k.after(1.0, chain);
  };
  k.after(1.0, chain);
  const auto res = k.run();
  EXPECT_TRUE(res.drained);
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(k.now(), 5.0);
}

TEST(Kernel, ZeroDelaySameTimeRunsAfterCurrent) {
  Kernel k;
  std::vector<int> order;
  k.at(1.0, [&] {
    order.push_back(1);
    k.after(0.0, [&] { order.push_back(2); });
  });
  k.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Kernel, TimeLimitStopsBeforeEvent) {
  Kernel k;
  int fired = 0;
  k.at(1.0, [&] { ++fired; });
  k.at(10.0, [&] { ++fired; });
  const auto res = k.run(5.0);
  EXPECT_TRUE(res.hit_time_limit);
  EXPECT_FALSE(res.drained);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(k.queued(), 1u);
}

TEST(Kernel, EventLimitStops) {
  Kernel k;
  std::function<void()> forever = [&] { k.after(1.0, forever); };
  k.after(1.0, forever);
  const auto res = k.run(1e18, 100);
  EXPECT_TRUE(res.hit_event_limit);
  EXPECT_EQ(res.events, 100u);
}

TEST(KernelDeath, SchedulingIntoThePastAborts) {
  Kernel k;
  k.at(5.0, [&] { k.at(1.0, [] {}); });
  ASSERT_DEATH(k.run(), "scheduling into the past");
}

TEST(Kernel, TimeLimitAdvancesClockSoCallersCanResume) {
  Kernel k;
  std::vector<double> fired;
  k.at(1.0, [&] { fired.push_back(1.0); });
  k.at(10.0, [&] { fired.push_back(10.0); });
  const auto res = k.run(5.0);
  EXPECT_TRUE(res.hit_time_limit);
  EXPECT_DOUBLE_EQ(k.now(), 5.0);
  // Scheduling between the limit and the queued tail is legal now, and a
  // second run() picks up where the first stopped.
  k.at(6.0, [&] { fired.push_back(6.0); });
  const auto res2 = k.run();
  EXPECT_TRUE(res2.drained);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 6.0, 10.0}));
}

TEST(Kernel, DiscardPendingDestroysTheQueuedEvents) {
  // After a time-limit stop the queued events (an inline closure, a spilled
  // one and a control event) are destroyed with their captures, and the
  // clock stays at the limit, on the sequential and the sharded executor.
  for (const std::uint32_t threads : {1u, 2u}) {
    ExecutorConfig cfg;
    cfg.threads = threads;
    cfg.nodes = 2;
    cfg.lookahead = 1.0;
    Kernel k(cfg);
    const auto held = std::make_shared<int>(0);
    const std::array<char, 96> ballast{};  // spills past the inline buffer
    k.at(1.0, OwnerId{0}, [held] { ++*held; });
    k.at(10.0, OwnerId{0}, [held] { ++*held; });
    k.at(10.0, OwnerId{1}, [held, ballast] { *held += ballast[0] + 1; });
    k.at(10.0, [held] { ++*held; });
    const auto res = k.run(5.0);
    EXPECT_TRUE(res.hit_time_limit);
    EXPECT_EQ(*held, 1);
    EXPECT_EQ(k.queued(), 3u);
    EXPECT_EQ(held.use_count(), 4);
    k.discard_pending();
    EXPECT_EQ(k.queued(), 0u) << "threads " << threads;
    EXPECT_EQ(held.use_count(), 1) << "threads " << threads;
    EXPECT_DOUBLE_EQ(k.now(), 5.0);
  }
}

// ---------------------------------------------------------------------------
// Owner objects: dispatch prefetches them, and nothing else may change
// ---------------------------------------------------------------------------

/// What one randomized self-scheduling run dispatched: each event's id,
/// time and owner in dispatch order, and the owner objects' bytes at the end.
struct OwnedRun {
  std::vector<std::tuple<std::uint64_t, double, OwnerId>> log;
  std::vector<unsigned char> objects;  // the owners' objects back to back
  bool operator==(const OwnedRun&) const = default;
};

/// Runs the same randomized schedule on a sequential kernel with the first
/// `registered` of 16 owner objects registered (none when 0). The objects
/// lie back to back in one buffer. Events go to the 16 owners and the
/// control context, carry inline or spilled closures, write their owner's
/// object and schedule more events to random owners.
OwnedRun run_owned_schedule(std::size_t registered) {
  constexpr int kOwners = 16;
  constexpr std::size_t kObjectBytes = 1344;
  OwnedRun run;
  run.objects.assign(kOwners * kObjectBytes, 0);
  Kernel k;
  if (registered > 0) k.set_owner_objects(run.objects.data(), kObjectBytes, registered);
  support::Rng rng(0x0B1EC7);
  std::uint64_t next_id = 0;
  std::function<void(OwnerId)> schedule_one;
  const auto handle = [&](std::uint64_t id, OwnerId owner, std::uint64_t salt) {
    run.log.emplace_back(id, k.now(), owner);
    if (owner != kControlOwner) {
      const std::size_t object = static_cast<std::size_t>(owner) * kObjectBytes;
      run.objects[object + id % kObjectBytes] ^= static_cast<unsigned char>(salt);
    }
    const int fanout = rng.chance(0.5) ? 2 : 1;
    for (int i = 0; i < fanout && next_id < 20000; ++i) {
      schedule_one(static_cast<OwnerId>(rng.range(-1, kOwners - 1)));
    }
  };
  schedule_one = [&](OwnerId owner) {
    const double t = k.now() + (rng.chance(0.3) ? 0.0 : rng.uniform(0.0, 2.0));
    const std::uint64_t id = next_id++;
    if (rng.chance(0.5)) {
      k.at(t, owner, [&handle, id, owner] { handle(id, owner, id); });
    } else {
      std::array<std::uint64_t, 12> payload{};  // 96 B: spills into a block
      payload[11] = id * 7;
      k.at(t, owner,
           [&handle, id, owner, payload] { handle(id, owner, payload[11]); });
    }
  };
  for (int i = 0; i < 64; ++i) {
    schedule_one(static_cast<OwnerId>(rng.range(-1, kOwners - 1)));
  }
  EXPECT_TRUE(k.run().drained);
  EXPECT_EQ(run.log.size(), next_id);
  return run;
}

TEST(Kernel, OwnerObjectsLeaveDispatchUnchanged) {
  const OwnedRun plain = run_owned_schedule(0);
  EXPECT_EQ(plain.log.size(), 20000u);
  EXPECT_EQ(plain, run_owned_schedule(6));   // fewer objects than owners
  EXPECT_EQ(plain, run_owned_schedule(16));  // every owner registered
}

// ---------------------------------------------------------------------------
// Sharded executor: canonical order must be invisible to the thread count
// ---------------------------------------------------------------------------

/// Runs an 8-node message mesh where every hop lands on the *same* virtual
/// timestamp on every node (t = 1 + k * lookahead) — the densest possible
/// same-time cross-shard tie storm — and returns each node's observation
/// log. Each log entry is (time, sender), appended by the owning node only.
std::vector<std::vector<std::pair<double, int>>> run_mesh(std::uint32_t threads) {
  constexpr std::uint32_t kNodes = 8;
  constexpr double kHop = 0.5;
  constexpr int kMaxHops = 6;
  ExecutorConfig cfg;
  cfg.threads = threads;
  cfg.nodes = kNodes;
  cfg.lookahead = kHop;
  Kernel k(cfg);
  std::vector<std::vector<std::pair<double, int>>> log(kNodes);
  std::function<void(std::uint32_t, int, int)> deliver =
      [&](std::uint32_t node, int from, int hops) {
        log[node].emplace_back(k.now(), from);
        if (hops >= kMaxHops) return;
        const double next = k.now() + kHop;
        for (const std::uint32_t step : {1u, 3u}) {
          const std::uint32_t to = (node + step) % kNodes;
          k.at(next, static_cast<OwnerId>(to),
               [&deliver, to, node, hops] {
                 deliver(to, static_cast<int>(node), hops + 1);
               });
        }
      };
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    k.at(1.0, static_cast<OwnerId>(n), [&deliver, n] { deliver(n, -1, 0); });
  }
  const auto res = k.run();
  EXPECT_TRUE(res.drained);
  return log;
}

TEST(ShardedKernel, DenseSameTimestampCrossShardEventsMatchSequential) {
  const auto sequential = run_mesh(1);
  EXPECT_EQ(sequential, run_mesh(2));
  EXPECT_EQ(sequential, run_mesh(4));
  EXPECT_EQ(sequential, run_mesh(8));  // one node per shard
}

/// End-to-end: the same scenario spec must fingerprint identically, report
/// and work mix, on the sequential kernel and on 2- and 4-way sharded
/// kernels, on every backend.
TEST(ShardedKernel, ScenarioFingerprintsMatchSequentialOnAllBackends) {
  for (const Backend backend :
       {Backend::kFtbb, Backend::kCentral, Backend::kDib}) {
    ScenarioSpec spec;
    spec.name = "executor-equality";
    spec.backend = backend;
    spec.workers = 4;
    spec.seed = 77;
    spec.time_limit = 300.0;
    spec.workload.kind = WorkloadKind::kSyntheticTree;
    spec.workload.size = 601;
    spec.workload.seed = 77;
    spec.workload.cost_mean = 2e-3;
    spec.tune_for_small_problems();
    // The churn joins land on the exact timestamps of the crash (t=0.05) and
    // the partition start (t=0.1): on central/dib, late joins are node-owned
    // events stamped by the control context, so this pins the barrier's
    // stamp-order execution of same-time control-stamped events.
    spec.faults.bounce(1, 0.05, 0.25)
        .split_halves(0.1, 0.2)
        .loss(0.0, 1e9, 0.05)
        .churn(4, 2, 0.05, 0.05);
    spec.sim_threads = 1;
    const ScenarioReport sequential = ScenarioRunner::run(spec);
    EXPECT_TRUE(sequential.completed) << sequential.to_string();
    for (const std::uint32_t threads : {2u, 4u}) {
      spec.sim_threads = threads;
      const ScenarioReport sharded = ScenarioRunner::run(spec);
      EXPECT_EQ(sequential.fingerprint(), sharded.fingerprint())
          << "backend " << to_string(backend) << " threads " << threads << "\n"
          << sequential.to_string() << sharded.to_string();
      ASSERT_TRUE(sequential.work_mix.has_value() && sharded.work_mix.has_value());
      EXPECT_EQ(sequential.work_mix->fingerprint(), sharded.work_mix->fingerprint())
          << "backend " << to_string(backend) << " threads " << threads << "\n"
          << sequential.work_mix->to_string() << "\n" << sharded.work_mix->to_string();
    }
  }
}

}  // namespace
}  // namespace ftbb::sim
