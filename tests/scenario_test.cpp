// Tests of the declarative scenario engine: every protocol path — crash,
// rejoin, partition + heal, message loss, membership churn — driven through
// ScenarioRunner on all three backends, with bit-reproducible reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>

#include "sim/outcome.hpp"
#include "sim/scenario.hpp"
#include "support/rng.hpp"

namespace ftbb::sim {
namespace {

ScenarioSpec base_spec(const std::string& name, Backend backend,
                       std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = name;
  spec.backend = backend;
  spec.seed = seed;
  spec.workers = 4;
  spec.time_limit = 300.0;
  spec.workload.kind = WorkloadKind::kSyntheticTree;
  spec.workload.size = 601;
  spec.workload.seed = seed;
  spec.workload.cost_mean = 2e-3;
  spec.tune_for_small_problems();
  return spec;
}

void expect_solved(const ScenarioReport& report) {
  EXPECT_TRUE(report.completed) << report.to_string();
  ASSERT_TRUE(report.solution_found) << report.to_string();
  ASSERT_TRUE(report.optimum_known);
  EXPECT_TRUE(report.optimum_matched) << report.to_string();
  EXPECT_DOUBLE_EQ(report.solution, report.optimum);
}

/// The same spec must reproduce the identical report, bit for bit.
void expect_reproducible(const ScenarioSpec& spec, const ScenarioReport& first) {
  const ScenarioReport again = ScenarioRunner::run(spec);
  EXPECT_EQ(first.fingerprint(), again.fingerprint()) << first.to_string();
  EXPECT_EQ(first.total_expanded, again.total_expanded);
  EXPECT_EQ(first.messages_sent, again.messages_sent);
  EXPECT_EQ(first.makespan, again.makespan);
  EXPECT_EQ(first.timeline, again.timeline);
}

class ScenarioBackendTest : public ::testing::TestWithParam<Backend> {};

TEST_P(ScenarioBackendTest, CrashAtDepthCompletes) {
  // Kill a worker once work has spread (several node costs into the run).
  ScenarioSpec spec = base_spec("crash-at-depth", GetParam(), 21);
  spec.faults.crash(1, 0.05).crash(2, 0.12);
  const ScenarioReport report = ScenarioRunner::run(spec);
  expect_solved(report);
  expect_reproducible(spec, report);
}

TEST_P(ScenarioBackendTest, PartitionAndHealCompletes) {
  ScenarioSpec spec = base_spec("partition-and-heal", GetParam(), 22);
  spec.faults.split_halves(0.05, 0.4);
  const ScenarioReport report = ScenarioRunner::run(spec);
  expect_solved(report);
  EXPECT_GT(report.messages_partitioned, 0u) << report.to_string();
  expect_reproducible(spec, report);
}

TEST_P(ScenarioBackendTest, TenPercentLossCompletes) {
  ScenarioSpec spec = base_spec("ten-percent-loss", GetParam(), 23);
  spec.faults.loss(0.0, 1e9, 0.10);
  const ScenarioReport report = ScenarioRunner::run(spec);
  expect_solved(report);
  EXPECT_GT(report.messages_lost, 0u) << report.to_string();
  expect_reproducible(spec, report);
}

INSTANTIATE_TEST_SUITE_P(Backends, ScenarioBackendTest,
                         ::testing::Values(Backend::kFtbb, Backend::kCentral,
                                           Backend::kDib),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(Scenario, RejoinAfterCrashCompletes) {
  ScenarioSpec spec = base_spec("crash-then-rejoin", Backend::kFtbb, 31);
  spec.faults.bounce(1, 0.05, 0.25);
  const ScenarioReport report = ScenarioRunner::run(spec);
  expect_solved(report);
  expect_reproducible(spec, report);
}

TEST(Scenario, MembershipChurnCompletes) {
  // Start with 2 workers; 3 more trickle in while two of the originals
  // bounce — the paper's dynamically available resource pool.
  ScenarioSpec spec = base_spec("membership-churn", Backend::kFtbb, 32);
  spec.workers = 2;
  spec.faults.churn(2, 3, 0.05, 0.04);
  spec.faults.bounce(1, 0.1, 0.3);
  const ScenarioReport report = ScenarioRunner::run(spec);
  EXPECT_EQ(report.workers, 5u);
  expect_solved(report);
  expect_reproducible(spec, report);
}

TEST(Scenario, CombinedAdversityCompletesWithAllFaultKinds) {
  // All five fault categories in one schedule.
  ScenarioSpec spec = base_spec("kitchen-sink", Backend::kFtbb, 33);
  spec.workers = 3;
  spec.faults.bounce(1, 0.08, 0.35)
      .split_halves(0.15, 0.3)
      .loss(0.0, 1e9, 0.05)
      .link_loss(0, 2, 0.2, 0.5, 0.5)
      .churn(3, 2, 0.1, 0.05);
  EXPECT_EQ(spec.faults.distinct_fault_kinds(), kFaultKinds);
  const ScenarioReport report = ScenarioRunner::run(spec);
  expect_solved(report);
  expect_reproducible(spec, report);
}

TEST(Scenario, WorkloadsAllRunUnderLoss) {
  for (const WorkloadKind kind : {WorkloadKind::kKnapsack,
                                  WorkloadKind::kSyntheticTree,
                                  WorkloadKind::kTsp}) {
    ScenarioSpec spec = base_spec("workload-sweep", Backend::kFtbb, 41);
    spec.workload.kind = kind;
    spec.workload.size = kind == WorkloadKind::kSyntheticTree ? 401
                         : kind == WorkloadKind::kKnapsack    ? 12
                                                              : 8;
    spec.faults.loss(0.0, 1e9, 0.05).crash(3, 0.05);
    const ScenarioReport report = ScenarioRunner::run(spec);
    expect_solved(report);
  }
}

TEST(Scenario, TspCompletesAndMatchesGolden) {
  // The deep-code workload (n = 9 -> 36-step codes, past PathCode's inline
  // buffer) under loss + a bounce: heap-mode codes flow through the pool,
  // the code tables, and the wire, and the run stays bit-reproducible.
  // Same pinning discipline as the other goldens; 2- and 4-thread replays
  // hold the sharded executor to the sequential order.
  ScenarioSpec spec = base_spec("tsp-adversary", Backend::kFtbb, 79);
  spec.workload.kind = WorkloadKind::kTsp;
  spec.workload.size = 9;
  spec.faults.loss(0.0, 1e9, 0.05).bounce(2, 0.05, 0.2);
  const ScenarioReport report = ScenarioRunner::run(spec);
  expect_solved(report);
  constexpr std::uint64_t kGolden = 0xe171b6dd0bd4bc18ULL;
  EXPECT_EQ(report.fingerprint(), kGolden)
      << "actual 0x" << std::hex << report.fingerprint() << "\n"
      << report.to_string();
  for (const std::uint32_t threads : {2u, 4u}) {
    ScenarioSpec sharded = spec;
    sharded.sim_threads = threads;
    EXPECT_EQ(ScenarioRunner::run(sharded).fingerprint(), kGolden)
        << "with " << threads << " threads";
  }
}

TEST(Scenario, CrashedWorkForcesRedundantExpansion) {
  // A crash destroying a worker's pool and unreported completions must be
  // paid for in re-expanded nodes, and the report must expose that cost.
  // The crashes land mid-run: the fault-free run ends at about 0.044 s.
  ScenarioSpec spec = base_spec("crash-costs-work", Backend::kFtbb, 42);
  spec.faults.crash(1, 0.02).crash(2, 0.02).crash(3, 0.02);
  const ScenarioReport report = ScenarioRunner::run(spec);
  expect_solved(report);
  EXPECT_GE(report.total_expanded, report.unique_expanded);
  EXPECT_EQ(report.redundant_expansions,
            report.total_expanded - report.unique_expanded);
  EXPECT_GT(report.redundant_expansions, 0u) << report.to_string();
  EXPECT_GT(report.redundant_cost, 0.0);
}

static_assert(sizeof(ExpansionLog) == sizeof(void*),
              "an empty expansion log is one pointer");

/// One logged record, as a test expects to read it back.
struct Logged {
  bool expanded;
  bool completed;
  core::PathCode code;
  double cost;
};

void expect_records(const ExpansionLog& log, const std::vector<Logged>& want) {
  ASSERT_EQ(log.records(), want.size());
  std::size_t i = 0;
  log.decode([&](const ExpansionLog::Record& r) {
    ASSERT_LT(i, want.size());
    EXPECT_EQ(r.expanded, want[i].expanded) << "record " << i;
    EXPECT_EQ(r.completed, want[i].completed) << "record " << i;
    EXPECT_TRUE(r.code == want[i].code.view()) << "record " << i;
    EXPECT_EQ(r.cost, want[i].cost) << "record " << i;
    ++i;
  });
  EXPECT_EQ(i, want.size());
}

TEST(ExpansionLog, RecordsRoundTripThroughDecodeAndTheAccount) {
  // A random walk over codes: the root, codes far deeper than PathCode's 32
  // inline words, words of 1 to 5 varint bytes, and tens of KB of records,
  // so records sit on both sides of several block boundaries (the first
  // block holds 256 bytes). Some expansions are repeated.
  support::Rng rng(2026);
  ExpansionLog log;
  log.add(core::PathCode::root(), 0.25);
  std::vector<Logged> want = {Logged{true, false, core::PathCode::root(), 0.25}};
  std::map<core::PathCode, std::pair<std::size_t, double>> expanded = {
      {core::PathCode::root(), {1, 0.25}}};  // count, cost
  core::PathCode code;
  for (int i = 0; i < 4000; ++i) {
    const std::size_t keep = rng.pick(code.depth() + 1);
    code = code.prefix(rng.chance(0.05) ? 0 : keep);
    const std::size_t grow = rng.chance(0.02) ? 60 + rng.pick(40) : rng.pick(4);
    for (std::size_t k = 0; k < grow; ++k) {
      const std::uint32_t var = static_cast<std::uint32_t>(
          rng.next() >> (33 + 7 * rng.pick(5)));  // up to kMaxVar
      code = code.child(var, rng.chance(0.5));
    }
    const double cost = rng.uniform(1e-4, 1e-2);
    if (rng.chance(0.3)) {
      log.complete(code);
      Logged& last = want.back();
      if (last.expanded && !last.completed && last.code == code) {
        last.completed = true;  // the code just expanded
      } else {
        want.push_back(Logged{false, true, code, 0.0});
      }
      continue;
    }
    const auto it = expanded.try_emplace(code, 0, cost).first;
    const int times = rng.chance(0.1) ? 2 : 1;
    for (int t = 0; t < times; ++t) {
      log.add(code, it->second.second);
      want.push_back(Logged{true, false, code, it->second.second});
      ++it->second.first;
    }
  }
  expect_records(log, want);

  std::size_t total = 0;
  double redundant_cost = 0.0;  // in code order, as the account sums it
  for (const auto& [c, seen] : expanded) {
    total += seen.first;
    if (seen.first > 1) redundant_cost += static_cast<double>(seen.first - 1) * seen.second;
  }
  EXPECT_EQ(log.size(), total);
  const std::array<const ExpansionLog*, 1> logs = {&log};
  RunOutcome out;
  out.account_expansions(logs);
  EXPECT_EQ(out.total_expanded, total);
  EXPECT_EQ(out.unique_expanded, expanded.size());
  EXPECT_EQ(out.redundant_expansions, total - expanded.size());
  EXPECT_GT(out.redundant_expansions, 0u);
  EXPECT_EQ(out.redundant_cost, redundant_cost);  // exact, not NEAR
}

TEST(ExpansionLog, CompletingTheCodeJustExpandedOnlyFlagsItsRecord) {
  const core::PathCode a = core::PathCode::root().child(3, true);
  const core::PathCode b = a.child(200, false);  // a two-byte word
  const core::PathCode c = b.sibling();
  ExpansionLog log;
  expect_records(log, {});
  log.add(a, 0.5);
  log.complete(a);  // the code just expanded: no record
  EXPECT_EQ(log.records(), 1u);
  log.complete(a);  // its flag is taken: a record
  log.add(b, 0.25);
  log.complete(c);  // another code: a record
  log.complete(b);  // b is no longer the last record: a record
  log.add(c, 0.125);
  log.mark();
  EXPECT_EQ(log.marked(), 6u);
  log.complete(c);  // the mark closed c's record: a record
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.marked(), 6u);
  expect_records(log, {Logged{true, true, a, 0.5}, Logged{false, true, a, 0.0},
                       Logged{true, false, b, 0.25}, Logged{false, true, c, 0.0},
                       Logged{false, true, b, 0.0}, Logged{true, false, c, 0.125},
                       Logged{false, true, c, 0.0}});
  std::size_t marked = 0;  // decode stops where it is told to
  log.decode([&marked](const ExpansionLog::Record&) { ++marked; }, log.marked());
  EXPECT_EQ(marked, 6u);
  // Completion-only records are not expansions.
  const std::array<const ExpansionLog*, 1> logs = {&log};
  RunOutcome out;
  out.account_expansions(logs);
  EXPECT_EQ(out.total_expanded, 3u);
  EXPECT_EQ(out.unique_expanded, 3u);
  EXPECT_EQ(out.redundant_cost, 0.0);
}

TEST(ExpansionAccount, RepeatsCountOnceAndPriceTheRestInAnyLogOrder) {
  // A code expanded k times across the logs is one unique expansion and
  // k - 1 redundant ones, priced at (k - 1) times its cost. Four codes
  // repeat, so a sum taken in log order would differ in its last bits; the
  // deep code (41 steps, 46 words a record) fills a log's first block.
  const core::PathCode a = core::PathCode::root().child(3, true);
  const core::PathCode b = a.sibling();
  const core::PathCode c = a.child(5, false);
  core::PathCode deep = a;
  for (std::uint32_t var = 0; var < 40; ++var) deep = deep.child(var, var % 2 == 0);
  const double cost_deep = 0.0371;
  std::vector<ExpansionLog> logs(4);  // the last one stays empty
  logs[0].add(core::PathCode::root(), 0.5);
  logs[0].add(a, 0.1);
  logs[1].add(a, 0.1);
  logs[1].add(b, 0.2);
  logs[2].add(b, 0.2);
  logs[2].add(c, 0.3);
  logs[0].add(c, 0.3);
  for (int k = 0; k < 4; ++k) logs[0].add(deep, cost_deep);
  for (int k = 0; k < 3; ++k) logs[1].add(deep, cost_deep);
  for (int k = 0; k < 3; ++k) logs[2].add(deep, cost_deep);
  ASSERT_EQ(logs[0].size(), 7u);
  ASSERT_EQ(logs[3].size(), 0u);

  std::array<const ExpansionLog*, 4> order = {&logs[0], &logs[1], &logs[2], &logs[3]};
  RunOutcome first;
  first.account_expansions(order);
  EXPECT_EQ(first.total_expanded, 17u);
  EXPECT_EQ(first.unique_expanded, 5u);  // root, a, b, c, deep
  EXPECT_EQ(first.redundant_expansions, 3u + 9u);
  EXPECT_DOUBLE_EQ(first.redundant_cost, 0.1 + 0.2 + 0.3 + 9 * cost_deep);
  EXPECT_EQ(first.work[core::WorkItem::kRedundantExpansions], 12u);
  EXPECT_EQ(first.work.redundant_seconds, first.redundant_cost);
  // Bit-identical under every permutation of the logs.
  std::sort(order.begin(), order.end());
  do {
    RunOutcome again;
    again.account_expansions(order);
    EXPECT_EQ(again.total_expanded, first.total_expanded);
    EXPECT_EQ(again.unique_expanded, first.unique_expanded);
    EXPECT_EQ(again.redundant_expansions, first.redundant_expansions);
    EXPECT_EQ(again.redundant_cost, first.redundant_cost);  // exact, not NEAR
    EXPECT_EQ(again.work.fingerprint(), first.work.fingerprint());
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(Scenario, CrashAtTheJoinInstantMatchesAJoinPastTheHorizon) {
  // A crash at a member's own join instant lands first, so the member never
  // joins: the run must match one whose member joins past the horizon and is
  // abandoned. (A DIB machine that has not joined answers no work request.)
  for (const Backend backend : {Backend::kFtbb, Backend::kCentral, Backend::kDib}) {
    ScenarioSpec crashed = base_spec("join-instant", backend, 37);
    crashed.workers = 3;
    crashed.faults.churn(3, 1, 0.05, 0.0).crash(3, 0.05);
    ScenarioSpec abandoned = crashed;
    abandoned.faults = FaultPlan{};
    abandoned.faults.churn(3, 1, crashed.time_limit + 1.0, 0.0);
    const ScenarioReport a = ScenarioRunner::run(crashed);
    const ScenarioReport b = ScenarioRunner::run(abandoned);
    expect_solved(a);
    EXPECT_EQ(a.workers, b.workers);
    EXPECT_EQ(a.completed, b.completed) << b.to_string();
    EXPECT_EQ(a.solution_found, b.solution_found);
    EXPECT_EQ(a.solution, b.solution);
    EXPECT_EQ(a.makespan, b.makespan) << a.to_string() << b.to_string();
    EXPECT_EQ(a.total_expanded, b.total_expanded);
    EXPECT_EQ(a.unique_expanded, b.unique_expanded);
    EXPECT_EQ(a.redundant_expansions, b.redundant_expansions);
    EXPECT_EQ(a.messages_sent, b.messages_sent) << to_string(backend);
    EXPECT_EQ(a.messages_delivered, b.messages_delivered);
    EXPECT_EQ(a.bytes_sent, b.bytes_sent);
    EXPECT_EQ(a.bytes_delivered, b.bytes_delivered);
  }
}

TEST(Scenario, DifferentSeedsProduceDifferentFingerprints) {
  ScenarioSpec spec_a = base_spec("seed-sensitivity", Backend::kFtbb, 51);
  ScenarioSpec spec_b = base_spec("seed-sensitivity", Backend::kFtbb, 52);
  spec_a.faults.loss(0.0, 1e9, 0.1);
  spec_b.faults.loss(0.0, 1e9, 0.1);
  spec_b.workload.seed = spec_a.workload.seed;  // same problem, new schedule
  const ScenarioReport a = ScenarioRunner::run(spec_a);
  const ScenarioReport b = ScenarioRunner::run(spec_b);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  // Both still solve the same instance optimally.
  EXPECT_DOUBLE_EQ(a.solution, b.solution);
}

TEST(Scenario, ReportCarriesTimelineAndDescribe) {
  ScenarioSpec spec = base_spec("timeline", Backend::kFtbb, 61);
  spec.faults.crash(1, 0.05).rejoin(1, 0.2).loss(0.1, 0.3, 0.2);
  const ScenarioReport report = ScenarioRunner::run(spec);
  ASSERT_EQ(report.timeline.size(), 3u);
  // Time-ordered.
  EXPECT_LE(report.timeline[0].time, report.timeline[1].time);
  EXPECT_LE(report.timeline[1].time, report.timeline[2].time);
  EXPECT_EQ(report.timeline[0].kind, FaultKind::kCrash);
  EXPECT_FALSE(report.to_string().empty());
  EXPECT_FALSE(spec.faults.describe().empty());
}

// ---------------------------------------------------------------------------
// Named fault-plan corpus: golden fingerprints + executor equality
// ---------------------------------------------------------------------------

/// The same spec replayed on the two baselines: pinned ScenarioReport and
/// work-mix fingerprints (the work mix is excluded from the report's own).
struct BaselineGoldens {
  std::uint64_t central_report;
  std::uint64_t central_work_mix;
  std::uint64_t dib_report;
  std::uint64_t dib_work_mix;
};

/// Runs `spec` on the central and DIB backends at 1, 2 and 4 sim threads
/// and checks every report against `goldens`.
void expect_baseline_goldens(const ScenarioSpec& spec,
                             const BaselineGoldens& goldens) {
  const struct {
    Backend backend;
    std::uint64_t report;
    std::uint64_t work_mix;
  } legs[] = {{Backend::kCentral, goldens.central_report, goldens.central_work_mix},
              {Backend::kDib, goldens.dib_report, goldens.dib_work_mix}};
  for (const auto& leg : legs) {
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
      ScenarioSpec swapped = spec;
      swapped.backend = leg.backend;
      swapped.sim_threads = threads;
      const ScenarioReport report = ScenarioRunner::run(swapped);
      ASSERT_TRUE(report.work_mix.has_value());
      EXPECT_EQ(report.fingerprint(), leg.report)
          << spec.name << " on " << to_string(leg.backend) << " with " << threads
          << " threads: actual 0x" << std::hex << report.fingerprint() << "\n"
          << report.to_string();
      EXPECT_EQ(report.work_mix->fingerprint(), leg.work_mix)
          << spec.name << " on " << to_string(leg.backend) << " with " << threads
          << " threads: actual work mix 0x" << std::hex
          << report.work_mix->fingerprint();
    }
  }
}

struct NamedPlanCase {
  const char* name;
  std::uint32_t workers;
  FaultPlan plan;
  std::uint64_t golden;  // pinned ScenarioReport fingerprint (see below)
  BaselineGoldens baselines;
};

/// The corpus: one archetypal schedule per named factory, with fixed shape
/// parameters. The golden fingerprints are regression data recorded with the
/// CI toolchain (GCC, x86-64, Release); regenerate by running the test and
/// copying the "actual" values if the corpus or the simulator semantics
/// deliberately change.
std::vector<NamedPlanCase> named_plan_cases() {
  std::vector<NamedPlanCase> cases;
  cases.push_back({"flaky-link", 4,
                   FaultPlan::flaky_link(0, 2, 0.02, 0.5, 0.6, 0.06),
                   0x4cee3ee639cfb4b2ULL,
                   {0x77b54f27b47b4f67ULL, 0x88328d82f59f6617ULL,
                    0x73791d6e83888990ULL, 0x47701249fadcf484ULL}});
  cases.push_back({"rolling-restart", 4,
                   FaultPlan::rolling_restart(1, 3, 0.05, 0.08, 0.1),
                   0x8ffe5b5f6a3b8838ULL,
                   {0xfeab94013be5aaddULL, 0x9705f737237d86ffULL,
                    0xba1aa89cb3d1889dULL, 0x254ca7692684245cULL}});
  cases.push_back({"flapping-partition", 4,
                   FaultPlan::flapping_partition(3, 0.04, 0.06, 0.05),
                   0x4dec7d9ae7820e9dULL,
                   {0x156648657f02347bULL, 0x0cbed4c13cf4e627ULL,
                    0xce16835aed834c5aULL, 0x27af539087b63ca7ULL}});
  cases.push_back({"adversarial-churn", 2,
                   FaultPlan::adversarial_churn(2, 3, 0.05, 0.05),
                   0x03599496eef5f8bdULL,
                   {0xd4afa13e1e0b4b12ULL, 0xf6c8936011382664ULL,
                    0x1d1133320b9a7878ULL, 0x5e6f181038c4c811ULL}});
  cases.push_back({"cascading-storm", 4,
                   FaultPlan::cascading_storm(1, 3, 0.05, 0.08, 0.12),
                   0x322c12890445edb7ULL,
                   {0xcaa7c5f43fb02e3bULL, 0xa694b7ba722471f7ULL,
                    0x2492a615beb94b42ULL, 0x0302b762bcedb095ULL}});
  cases.push_back({"asymmetric-partition", 4,
                   FaultPlan::asymmetric_partition(1, 3, 0.04, 0.07, 0.05),
                   0x83d23375e08522d9ULL,
                   {0xd652a39a5992201aULL, 0x197a74941279e3c9ULL,
                    0x5fe07da15f3731e3ULL, 0x858fe760f913935eULL}});
  return cases;
}

ScenarioSpec named_plan_spec(const NamedPlanCase& c) {
  ScenarioSpec spec = base_spec(c.name, Backend::kFtbb, 97);
  spec.workers = c.workers;
  spec.faults = c.plan;
  return spec;
}

TEST(NamedPlans, CompleteOptimallyAndMatchGoldenFingerprints) {
  for (const NamedPlanCase& c : named_plan_cases()) {
    const ScenarioReport report = ScenarioRunner::run(named_plan_spec(c));
    expect_solved(report);
    EXPECT_EQ(report.fingerprint(), c.golden)
        << c.name << " actual 0x" << std::hex << report.fingerprint() << "\n"
        << report.to_string();
  }
}

TEST(NamedPlans, ShardedExecutorReproducesEveryGolden) {
  for (const NamedPlanCase& c : named_plan_cases()) {
    for (const std::uint32_t threads : {2u, 4u}) {
      ScenarioSpec spec = named_plan_spec(c);
      spec.sim_threads = threads;
      const ScenarioReport report = ScenarioRunner::run(spec);
      EXPECT_EQ(report.fingerprint(), c.golden)
          << c.name << " with " << threads << " threads\n" << report.to_string();
    }
  }
}

TEST(NamedPlans, BaselinesMatchGoldenFingerprintsAtEveryThreadCount) {
  for (const NamedPlanCase& c : named_plan_cases()) {
    expect_baseline_goldens(named_plan_spec(c), c.baselines);
  }
}

TEST(NamedPlans, RollingRestartPricesRedoneWorkOnEverySubstrate) {
  // The baselines re-expand after the rolling restart (1 code on central and
  // 13 on DIB), and one expansion account prices what they redo in the
  // report and in its ledger alike. rt's crashes land at wall-clock
  // instants, so its redone work varies run to run; the account must still
  // balance there.
  const std::vector<NamedPlanCase> cases = named_plan_cases();
  const NamedPlanCase& rolling = cases[1];
  ASSERT_STREQ(rolling.name, "rolling-restart");
  for (const Backend backend : {Backend::kCentral, Backend::kDib, Backend::kRt}) {
    ScenarioSpec spec = named_plan_spec(rolling);
    spec.backend = backend;
    const ScenarioReport report = ScenarioRunner::run(spec);
    ASSERT_TRUE(report.work_mix.has_value());
    EXPECT_EQ(report.unique_expanded + report.redundant_expansions,
              report.total_expanded)
        << report.to_string();
    if (backend != Backend::kRt) {
      EXPECT_GT(report.redundant_expansions, 0u) << to_string(backend);
    }
    if (report.redundant_expansions > 0) {
      EXPECT_GT(report.redundant_cost, 0.0) << report.to_string();
    }
    EXPECT_EQ(report.work_mix->redundant_seconds, report.redundant_cost);
    EXPECT_EQ((*report.work_mix)[core::WorkItem::kRedundantExpansions],
              report.redundant_expansions);
  }
}

TEST(NamedPlans, ExerciseTheIntendedFaultKinds) {
  EXPECT_TRUE(FaultPlan::flaky_link(0, 1, 0.0, 1.0, 0.5, 0.1).has(FaultKind::kLoss));
  const FaultPlan rolling = FaultPlan::rolling_restart(1, 2, 0.1, 0.1, 0.2);
  EXPECT_TRUE(rolling.has(FaultKind::kCrash));
  EXPECT_TRUE(rolling.has(FaultKind::kRejoin));
  EXPECT_TRUE(
      FaultPlan::flapping_partition(2, 0.0, 0.1, 0.1).has(FaultKind::kPartition));
  const FaultPlan churny = FaultPlan::adversarial_churn(4, 3, 0.1, 0.1);
  EXPECT_TRUE(churny.has(FaultKind::kChurn));
  EXPECT_TRUE(churny.has(FaultKind::kLoss));
  EXPECT_EQ(churny.max_node(), 6);
  const FaultPlan storm = FaultPlan::cascading_storm(1, 2, 0.1, 0.1, 0.2);
  EXPECT_TRUE(storm.has(FaultKind::kCrash));
  EXPECT_TRUE(storm.has(FaultKind::kRejoin));
  EXPECT_TRUE(storm.has(FaultKind::kPartition));
  EXPECT_TRUE(storm.has(FaultKind::kLoss));
  EXPECT_TRUE(
      FaultPlan::asymmetric_partition(1, 2, 0.0, 0.1, 0.1).has(FaultKind::kPartition));
}

// ---------------------------------------------------------------------------
// Planetary corpus: the hierarchical-topology fault family under a
// LAN/campus/WAN network. Same golden-fingerprint discipline as the named
// plans above, plus sharded-executor equality — these runs exercise the
// per-channel lookahead windows (topology-aligned shards, per-pair floors).
// ---------------------------------------------------------------------------

struct PlanetaryCase {
  const char* name;
  std::uint32_t workers;
  FaultPlan plan;
  std::uint64_t golden;  // pinned ScenarioReport fingerprint
  BaselineGoldens baselines;
};

constexpr std::uint32_t kPlanetaryNodesPerRack = 4;
constexpr std::uint32_t kPlanetaryRacksPerCampus = 2;

std::vector<PlanetaryCase> planetary_cases() {
  std::vector<PlanetaryCase> cases;
  cases.push_back({"planetary-churn", 8,
                   FaultPlan::planetary_churn(8, 5, 0.05, 0.04),
                   0xeab0ac07971ab207ULL,
                   {0x4ff5790c1e4c8f20ULL, 0x3969b0adfbf4e5c8ULL,
                    0x62a5ba002ae366f5ULL, 0x3159cfd40f7061f4ULL}});
  cases.push_back({"rack-failures", 12,
                   FaultPlan::rack_failures(1, 2, kPlanetaryNodesPerRack, 0.05,
                                            0.04, 0.1),
                   0x9902a4d6a863069cULL,
                   {0x8e9594907878862cULL, 0xb52fb3c7651e8358ULL,
                    0x38df03a19c976e47ULL, 0xa765da4e97249f24ULL}});
  cases.push_back({"cascading-partition", 24,
                   FaultPlan::cascading_partition(24, kPlanetaryNodesPerRack,
                                                  kPlanetaryRacksPerCampus,
                                                  0.04, 0.08, 0.04),
                   0x530067f73f264c50ULL,
                   {0x74b661f66cec1c75ULL, 0x9e553d45c2b34c60ULL,
                    0x618b225c2e82279aULL, 0x6b7e05654e5f0941ULL}});
  cases.push_back({"planetary-storm", 24,
                   FaultPlan::planetary_storm(24, kPlanetaryNodesPerRack,
                                              kPlanetaryRacksPerCampus, 0.05,
                                              0.05),
                   0xa0f6cdc626dc6ddeULL,
                   {0x9d33c2946db1b9aaULL, 0xd6bf9c8b1260b854ULL,
                    0xe8de76a7a6b18901ULL, 0x755d1db02d6b2a40ULL}});
  return cases;
}

ScenarioSpec planetary_spec(const PlanetaryCase& c) {
  ScenarioSpec spec = base_spec(c.name, Backend::kFtbb, 131);
  spec.workers = c.workers;
  spec.faults = c.plan;
  spec.net.topology.nodes_per_rack = kPlanetaryNodesPerRack;
  spec.net.topology.racks_per_campus = kPlanetaryRacksPerCampus;
  return spec;
}

TEST(PlanetaryPlans, CompleteOptimallyAndMatchGoldenFingerprints) {
  for (const PlanetaryCase& c : planetary_cases()) {
    const ScenarioReport report = ScenarioRunner::run(planetary_spec(c));
    expect_solved(report);
    EXPECT_EQ(report.fingerprint(), c.golden)
        << c.name << " actual 0x" << std::hex << report.fingerprint() << "\n"
        << report.to_string();
  }
}

TEST(PlanetaryPlans, ShardedExecutorReproducesEveryGolden) {
  for (const PlanetaryCase& c : planetary_cases()) {
    for (const std::uint32_t threads : {2u, 4u}) {
      ScenarioSpec spec = planetary_spec(c);
      spec.sim_threads = threads;
      const ScenarioReport report = ScenarioRunner::run(spec);
      EXPECT_EQ(report.fingerprint(), c.golden)
          << c.name << " with " << threads << " threads\n" << report.to_string();
    }
  }
}

TEST(PlanetaryPlans, BaselinesMatchGoldenFingerprintsAtEveryThreadCount) {
  for (const PlanetaryCase& c : planetary_cases()) {
    expect_baseline_goldens(planetary_spec(c), c.baselines);
  }
}

TEST(PlanetaryPlans, StormExercisesEveryFaultKind) {
  const FaultPlan storm = FaultPlan::planetary_storm(24, 4, 2, 0.05, 0.05);
  EXPECT_TRUE(storm.has(FaultKind::kCrash));
  EXPECT_TRUE(storm.has(FaultKind::kRejoin));
  EXPECT_TRUE(storm.has(FaultKind::kPartition));
  EXPECT_TRUE(storm.has(FaultKind::kLoss));
  EXPECT_TRUE(storm.has(FaultKind::kChurn));
  EXPECT_EQ(storm.distinct_fault_kinds(), kFaultKinds);
  // Churn arrivals extend the population: 24 initial + 6 heavy-tailed.
  EXPECT_EQ(storm.max_node(), 29);
}

TEST(FaultPlan, IsolateMaterializesARotatingMinority) {
  FaultPlan plan = FaultPlan::asymmetric_partition(2, 3, 0.0, 0.1, 0.1);
  plan.for_workers(5);
  ASSERT_EQ(plan.partitions().size(), 3u);
  // Episode 0 isolates {0, 1}; episode 1 {2, 3}; episode 2 {4, 0} (wraps).
  EXPECT_EQ(plan.partitions()[0].group_of, (std::vector<int>{1, 1, 0, 0, 0}));
  EXPECT_EQ(plan.partitions()[1].group_of, (std::vector<int>{0, 0, 1, 1, 0}));
  EXPECT_EQ(plan.partitions()[2].group_of, (std::vector<int>{1, 0, 0, 0, 1}));
}

TEST(FaultPlan, ValidatesAndCounts) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.distinct_fault_kinds(), 0);
  plan.crash(2, 0.1).rejoin(2, 0.5).split_halves(0.2, 0.3).loss(0.0, 1.0, 0.1);
  plan.churn(4, 2, 0.1, 0.1);
  EXPECT_EQ(plan.distinct_fault_kinds(), kFaultKinds);
  EXPECT_EQ(plan.max_node(), 5);
  plan.for_workers(6);
  ASSERT_EQ(plan.partitions().size(), 1u);
  EXPECT_EQ(plan.partitions()[0].group_of.size(), 6u);
  EXPECT_FALSE(plan.describe().empty());
}

TEST(FaultPlanDeath, RejoinWithoutCrashAborts) {
  FaultPlan plan;
  plan.rejoin(1, 0.5);
  EXPECT_DEATH(plan.for_workers(4), "rejoin without a preceding crash");
}

}  // namespace
}  // namespace ftbb::sim
