// Tests of the work ledger and the cost-model controller (core/cost_model.hpp):
// controller policy (only the time-priced knob scales; hysteresis; batch and
// grant sizing), ledger merge determinism (sequential vs sharded execution,
// bit for bit, with pinned golden fingerprints), per-incarnation counters
// across crash/revive.
#include <gtest/gtest.h>

#include "core/cost_model.hpp"
#include "sim/cluster.hpp"
#include "sim/scenario.hpp"

namespace ftbb {
namespace {

// ---------------------------------------------------------------------------
// CostController policy
// ---------------------------------------------------------------------------

core::CostController make_controller(double base_timeout = 0.05,
                                     std::uint32_t base_batch = 8,
                                     double report_msg_cost = 2e-4) {
  core::CostController c;
  c.configure(base_timeout, base_batch, report_msg_cost);
  return c;
}

TEST(CostController, OnlyTheTimePricedKnobScales) {
  core::CostController c = make_controller();
  for (int i = 0; i < 200; ++i) c.observe(0.1);  // coarse nodes
  EXPECT_GT(c.tuned_ewma(), 0.05);
  // The request timeout grows with the observed node cost. The
  // message-priced knobs (idle backoff, report flush) are not the
  // controller's: the worker reads them from its config in both modes.
  EXPECT_DOUBLE_EQ(c.request_timeout(),
                   0.05 + core::CostController::kTimeoutSafety * c.tuned_ewma());
}

TEST(CostController, HysteresisSuppressesSmallRetunes) {
  core::CostController c = make_controller();
  for (int i = 0; i < 500; ++i) c.observe(1e-3);
  const std::uint64_t settled = c.retunes();
  const double tuned = c.tuned_ewma();
  // Small fluctuations (well inside the 25% hysteresis band) do not retune.
  for (int i = 0; i < 100; ++i) c.observe(1.05e-3);
  EXPECT_EQ(c.retunes(), settled);
  EXPECT_DOUBLE_EQ(c.tuned_ewma(), tuned);
  // A granularity shift far outside the band does.
  for (int i = 0; i < 200; ++i) c.observe(1e-2);
  EXPECT_GT(c.retunes(), settled);
  EXPECT_GT(c.tuned_ewma(), tuned * 2);
}

TEST(CostController, BatchShrinksOnCoarseNodesOnly) {
  core::CostController fine = make_controller();
  for (int i = 0; i < 200; ++i) fine.observe(1e-3);
  // Fine nodes: a report message amortizes over the full base batch.
  EXPECT_EQ(fine.report_batch(), 8u);

  core::CostController coarse = make_controller();
  for (int i = 0; i < 200; ++i) coarse.observe(0.1);
  // Coarse nodes: holding 8 completions back costs far more search time
  // than the message saves, so the batch shrinks (to 1 at this extreme).
  EXPECT_LT(coarse.report_batch(), 8u);
  EXPECT_GE(coarse.report_batch(), 1u);
}

TEST(CostController, GrantSizeIsCappedByTheTimeoutHorizon) {
  core::CostController c = make_controller();
  for (int i = 0; i < 200; ++i) c.observe(0.5);  // very coarse
  // The requester re-asks after its timeout; granting more work than two
  // timeout windows of it just strands subproblems on a peer.
  const double horizon = 2.0 * c.request_timeout() / c.tuned_ewma();
  EXPECT_LE(c.grant_size(1000), static_cast<std::uint32_t>(horizon) + 1);
  EXPECT_GE(c.grant_size(1000), 1u);
  // Never grants more than suggested.
  EXPECT_LE(c.grant_size(2), 2u);
}

// ---------------------------------------------------------------------------
// WorkLedger merge semantics
// ---------------------------------------------------------------------------

TEST(WorkLedger, AddIsCommutativeAndFingerprintSeesEveryField) {
  core::WorkLedger a;
  core::WorkLedger b;
  a[core::WorkItem::kExpansions] = 3;
  a.seconds[0] = 1.5;
  b[core::WorkItem::kMsgsSent] = 7;
  b.redundant_seconds = 0.25;

  core::WorkLedger ab = a;
  ab.add(b);
  core::WorkLedger ba = b;
  ba.add(a);
  EXPECT_EQ(ab.fingerprint(), ba.fingerprint());

  // Every counter, every time bucket, and the redundant-seconds field all
  // perturb the fingerprint.
  for (int i = 0; i < core::kWorkItems; ++i) {
    core::WorkLedger l = ab;
    l.items[i] += 1;
    EXPECT_NE(l.fingerprint(), ab.fingerprint()) << "item " << i;
  }
  for (int i = 0; i < core::kCostKinds; ++i) {
    core::WorkLedger l = ab;
    l.seconds[i] += 0.5;
    EXPECT_NE(l.fingerprint(), ab.fingerprint()) << "time " << i;
  }
  core::WorkLedger l = ab;
  l.redundant_seconds += 0.5;
  EXPECT_NE(l.fingerprint(), ab.fingerprint());
  // Nonzero counters in WorkItem order, then every time bucket by its
  // CostKind name.
  EXPECT_EQ(ab.to_string(),
            "work-mix: expansions=3 msgs_sent=7 t_bb=1.5 t_contraction=0 t_comm=0 "
            "t_lb=0 t_idle=0 t_redundant=0.25");
}

// ---------------------------------------------------------------------------
// Work-mix determinism: sequential vs sharded, with pinned goldens
// ---------------------------------------------------------------------------

struct WorkMixCase {
  const char* name;
  std::uint32_t workers;
  sim::FaultPlan plan;
  std::uint64_t golden;  // pinned WorkLedger fingerprint (CI toolchain)
};

std::vector<WorkMixCase> work_mix_cases() {
  std::vector<WorkMixCase> cases;
  cases.push_back({"flaky-link", 4,
                   sim::FaultPlan::flaky_link(0, 2, 0.02, 0.5, 0.6, 0.06),
                   0x4e595135e6cc9a8cULL});
  cases.push_back({"rolling-restart", 4,
                   sim::FaultPlan::rolling_restart(1, 3, 0.05, 0.08, 0.1),
                   0xd013d626b403f7d0ULL});
  cases.push_back({"cascading-storm", 4,
                   sim::FaultPlan::cascading_storm(1, 3, 0.05, 0.08, 0.12),
                   0x053e51700d18345fULL});
  return cases;
}

sim::ScenarioSpec work_mix_spec(const WorkMixCase& c) {
  sim::ScenarioSpec spec;
  spec.name = c.name;
  spec.backend = sim::Backend::kFtbb;
  spec.seed = 97;
  spec.workers = c.workers;
  spec.time_limit = 300.0;
  spec.workload.kind = sim::WorkloadKind::kSyntheticTree;
  spec.workload.size = 601;
  spec.workload.seed = 97;
  // Coarse enough that the fault schedules (first events at 0.02-0.05)
  // land inside the run and perturb the work mix, not after termination.
  spec.workload.cost_mean = 0.01;
  spec.tune_for_small_problems();
  spec.faults = c.plan;
  return spec;
}

TEST(WorkMix, SequentialAndShardedLedgersAreBitIdentical) {
  for (const WorkMixCase& c : work_mix_cases()) {
    const sim::ScenarioReport seq = sim::ScenarioRunner::run(work_mix_spec(c));
    ASSERT_TRUE(seq.work_mix.has_value());
    EXPECT_EQ(seq.work_mix->fingerprint(), c.golden)
        << c.name << " actual 0x" << std::hex << seq.work_mix->fingerprint()
        << "\n" << seq.work_mix->to_string();
    for (const std::uint32_t threads : {2u, 4u}) {
      sim::ScenarioSpec spec = work_mix_spec(c);
      spec.sim_threads = threads;
      const sim::ScenarioReport sharded = sim::ScenarioRunner::run(spec);
      ASSERT_TRUE(sharded.work_mix.has_value());
      EXPECT_EQ(sharded.work_mix->fingerprint(), seq.work_mix->fingerprint())
          << c.name << " with " << threads << " threads\n"
          << sharded.work_mix->to_string();
    }
  }
}

TEST(WorkMix, LedgerIsConsistentWithTheReportItRidesIn) {
  const sim::ScenarioReport report =
      sim::ScenarioRunner::run(work_mix_spec(work_mix_cases()[0]));
  ASSERT_TRUE(report.work_mix.has_value());
  const core::WorkLedger& work = *report.work_mix;
  EXPECT_EQ(work[core::WorkItem::kExpansions], report.total_expanded);
  EXPECT_EQ(work[core::WorkItem::kRedundantExpansions],
            report.redundant_expansions);
  EXPECT_EQ(work.redundant_seconds, report.redundant_cost);
  EXPECT_EQ(work[core::WorkItem::kMsgsSent], report.messages_sent);
  EXPECT_EQ(work[core::WorkItem::kWireBytesSent], report.bytes_sent);
  // The pool sees every expansion at least once.
  EXPECT_GE(work[core::WorkItem::kPoolPushes], report.total_expanded);
}

TEST(WorkMix, CrashAndReviveResetPerIncarnationCounters) {
  sim::ScenarioSpec spec = work_mix_spec(work_mix_cases()[0]);

  const sim::Workload workload = sim::build_workload(spec.workload);
  sim::ClusterConfig cfg;
  cfg.workers = 4;
  cfg.worker = spec.worker;
  cfg.seed = spec.seed;
  cfg.time_limit = spec.time_limit;
  cfg.crashes.push_back(sim::CrashEvent{1, 0.02});
  cfg.rejoins.push_back(sim::ReviveEvent{1, 0.06});
  const sim::ClusterResult res = sim::SimCluster::run(*workload.model, cfg);
  ASSERT_TRUE(res.all_live_halted);
  ASSERT_EQ(res.worker_ledgers.size(), 4u);
  // The bounced host merged two incarnations; everyone else ran one.
  EXPECT_EQ(res.worker_ledgers[1][core::WorkItem::kIncarnations], 2u);
  for (const std::uint32_t w : {0u, 2u, 3u}) {
    EXPECT_EQ(res.worker_ledgers[w][core::WorkItem::kIncarnations], 1u) << w;
  }
  EXPECT_EQ(res.work[core::WorkItem::kIncarnations], 5u);
  // The cluster merge is exactly the sum of the per-host merges.
  core::WorkLedger sum;
  for (const core::WorkLedger& l : res.worker_ledgers) sum.add(l);
  sum[core::WorkItem::kRedundantExpansions] = res.redundant_expansions;
  sum.redundant_seconds = res.redundant_cost;
  EXPECT_EQ(sum.fingerprint(), res.work.fingerprint());
}

}  // namespace
}  // namespace ftbb
