// E8 — fault-tolerance overhead ablations (Section 6.3.1 discussion).
//
// The paper: "this overhead can be controlled by tuning various execution
// parameters" — report frequency trades communication/contraction cost
// against termination-detection latency; recovery aggressiveness trades
// redundant work against recovery speed. Three ablations:
//   (a) report batch c and fanout m: overhead vs termination lag;
//   (b) failure-suspicion eagerness (attempts before recovery, and whether
//       denies count): redundant work without failures vs recovery latency
//       with failures;
//   (c) recovery policy: redundant work after a crash.
#include <cstdio>

#include "bench/workloads.hpp"

using namespace ftbb;

namespace {

bnb::BasicTree make_tree() {
  bnb::RandomTreeConfig cfg;
  cfg.target_nodes = 4001;
  cfg.cost_mean = 0.01;
  cfg.seed = 31;
  return bnb::BasicTree::random(cfg);
}

}  // namespace

int main() {
  std::printf("E8 / fault-tolerance overhead ablations, 8 processors\n\n");
  const bnb::BasicTree tree = make_tree();
  bnb::TreeProblem problem(&tree, /*honor_bounds=*/false);

  // ---- (a) report batch & fanout ----
  std::printf("(a) report batch c and fanout m (no failures)\n");
  support::TextTable ta({"c", "m", "makespan (s)", "termination lag (s)",
                         "report bytes", "contraction %"});
  for (const std::uint32_t batch : {2u, 8u, 32u}) {
    for (const std::uint32_t fanout : {1u, 2u, 4u}) {
      sim::ClusterConfig cfg = bench::small_cluster_config(8, 31);
      cfg.worker.report_batch = batch;
      cfg.worker.report_fanout = fanout;
      const sim::ClusterResult res = sim::SimCluster::run(problem, cfg);
      if (!res.all_live_halted) continue;
      ta.row({std::to_string(batch), std::to_string(fanout),
              support::TextTable::num(res.makespan, 2),
              support::TextTable::num(res.makespan - res.first_detection, 3),
              std::to_string(res.net.bytes_sent),
              support::TextTable::pct(
                  res.work.time(core::CostKind::kContraction) / res.work.time_all(), 2)});
    }
  }
  std::printf("%s\n", ta.render().c_str());

  // ---- (b) failure-suspicion eagerness ----
  std::printf("(b) suspicion eagerness: redundant work without failures vs\n"
              "    recovery delay with 3 of 8 workers crashing mid-run\n");
  const sim::ClusterResult baseline =
      sim::SimCluster::run(problem, bench::small_cluster_config(8, 31));
  support::TextTable tb({"attempts", "denies count?", "redundant (no fail)",
                         "makespan w/ crashes (s)", "redundant w/ crashes"});
  for (const std::uint32_t attempts : {1u, 3u, 6u}) {
    for (const bool denies : {false, true}) {
      sim::ClusterConfig cfg = bench::small_cluster_config(8, 31);
      cfg.worker.attempts_before_recovery = attempts;
      cfg.worker.count_denies_toward_recovery = denies;
      const sim::ClusterResult clean = sim::SimCluster::run(problem, cfg);
      sim::ClusterConfig crash_cfg = cfg;
      crash_cfg.crashes = {{1, baseline.makespan * 0.3},
                           {3, baseline.makespan * 0.5},
                           {6, baseline.makespan * 0.5}};
      crash_cfg.time_limit = 3e4;
      const sim::ClusterResult crashed = sim::SimCluster::run(problem, crash_cfg);
      tb.row({std::to_string(attempts), denies ? "yes" : "no",
              std::to_string(clean.redundant_expansions),
              crashed.all_live_halted ? support::TextTable::num(crashed.makespan, 2)
                                      : "did not finish",
              std::to_string(crashed.redundant_expansions)});
    }
  }
  std::printf("%s\n", tb.render().c_str());

  // ---- (c) recovery policy ----
  std::printf("(c) recovery policy after 3 of 8 workers crash\n");
  support::TextTable tc({"policy", "makespan (s)", "redundant", "recoveries"});
  for (const core::RecoveryPolicy policy :
       {core::RecoveryPolicy::kRandom, core::RecoveryPolicy::kDeepest,
        core::RecoveryPolicy::kShallowest, core::RecoveryPolicy::kNearLastLocal}) {
    sim::ClusterConfig cfg = bench::small_cluster_config(8, 31);
    cfg.worker.recovery = policy;
    cfg.crashes = {{1, baseline.makespan * 0.3},
                   {3, baseline.makespan * 0.5},
                   {6, baseline.makespan * 0.5}};
    cfg.time_limit = 3e4;
    const sim::ClusterResult res = sim::SimCluster::run(problem, cfg);
    const std::uint64_t recoveries = res.work[core::WorkItem::kRecoveries];
    tc.row({to_string(policy),
            res.all_live_halted ? support::TextTable::num(res.makespan, 2)
                                : "did not finish",
            std::to_string(res.redundant_expansions), std::to_string(recoveries)});
  }
  std::printf("%s", tc.render().c_str());
  std::printf("\nexpected shape: small c / large m spread knowledge faster (lower\n"
              "termination lag) at higher communication cost; eager suspicion\n"
              "(low attempts, denies counted) duplicates work when nothing failed\n"
              "but recovers faster when something did; near-last-local and deepest\n"
              "recovery duplicate less than random/shallowest.\n");
  return 0;
}
