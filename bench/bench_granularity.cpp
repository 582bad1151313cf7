// E7 — granularity sweep (Section 6.3.1, closing paragraph).
//
// The paper tunes granularity "by multiplying all time values by a constant
// factor" and observes: load balance improves with coarser granularity, and
// communication increases unnecessarily when work reports are sent at fixed
// time intervals. Protocol timeouts here stay FIXED while node cost varies,
// reproducing that mismatch; the paper's conclusion — parameters must adapt
// to the observed execution time per subproblem — is exactly what this
// table shows.
//
// `--smoke` shrinks the sweeps for CI.
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_timing.hpp"
#include "bench/workloads.hpp"

namespace {

/// One sweep row, kept for the JSON artifact (BENCH_granularity.json).
struct SweepSample {
  double factor = 0.0;
  double makespan = 0.0;
  double efficiency = 0.0;
  double waste = 0.0;
  double msgs_per_node = 0.0;
  std::uint64_t redundant = 0;
};

struct AdaptiveSample {
  double factor = 0.0;
  std::uint64_t fixed_timeouts = 0;
  std::uint64_t fixed_redundant = 0;
  double fixed_efficiency = -1.0;  // -1: did not halt in the time limit
  std::uint64_t model_timeouts = 0;
  std::uint64_t model_redundant = 0;
  double model_efficiency = -1.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace ftbb;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  std::printf("E7 / granularity sweep: node cost x{0.1,0.3,1,3,10}, 8 processors%s\n\n",
              smoke ? " (smoke)" : "");

  const std::vector<double> sweep_factors =
      smoke ? std::vector<double>{0.1, 10.0}
            : std::vector<double>{0.1, 0.3, 1.0, 3.0, 10.0};
  const std::vector<double> adaptive_factors =
      smoke ? std::vector<double>{10.0} : std::vector<double>{0.1, 1.0, 10.0, 30.0};

  std::vector<SweepSample> sweep;
  std::vector<AdaptiveSample> adaptive_sweep;
  support::TextTable table({"cost factor", "mean cost (s)", "makespan (s)",
                            "efficiency", "idle+lb", "msgs/node",
                            "redundant"});
  for (const double factor : sweep_factors) {
    bnb::RandomTreeConfig tree_cfg;
    tree_cfg.target_nodes = 4001;
    tree_cfg.cost_mean = 0.01;  // base granularity; scaled below
    tree_cfg.seed = 23;
    bnb::BasicTree tree = bnb::BasicTree::random(tree_cfg);
    tree.scale_costs(factor);
    bnb::TreeProblem problem(&tree, /*honor_bounds=*/false);

    // Fixed protocol parameters across the sweep (the paper's setup).
    sim::ClusterConfig cfg = bench::small_cluster_config(8, 23);
    cfg.time_limit = 3e5;
    const sim::ClusterResult res = sim::SimCluster::run(problem, cfg);
    if (!res.all_live_halted) {
      std::printf("factor=%.1f FAILED\n", factor);
      return 1;
    }
    const double ideal = tree.total_cost() / 8.0;
    const double total = res.time_all();
    const double waste = (res.time_of(core::CostKind::kIdle) +
                          res.time_of(core::CostKind::kLoadBalance)) /
                         total;
    sweep.push_back(SweepSample{
        factor, res.makespan, ideal / res.makespan, waste,
        static_cast<double>(res.net.messages_sent) /
            static_cast<double>(res.total_expanded),
        res.redundant_expansions});
    table.row({support::TextTable::num(factor, 1),
               support::TextTable::num(0.01 * factor, 3),
               support::TextTable::num(res.makespan, 2),
               support::TextTable::pct(ideal / res.makespan, 1),
               support::TextTable::pct(waste, 1),
               support::TextTable::num(
                   static_cast<double>(res.net.messages_sent) /
                       static_cast<double>(res.total_expanded),
                   2),
               std::to_string(res.redundant_expansions)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\npaper shape: coarser granularity -> better load balance\n"
              "(efficiency rises), but messages per unit of work grow because\n"
              "interval-driven traffic (report flushes, table gossip, polling)\n"
              "continues regardless of node cost; very coarse nodes with fixed\n"
              "timeouts can also provoke premature failure suspicion.\n\n");

  // E15 extension: the paper's proposed remedy — "a flexible scheme for
  // adapting parameters to runtime informations, such as ... execution time
  // per problem" (Section 7) — as the cost-model controller
  // (WorkerConfig::model_adaptivity, core/cost_model.hpp).
  std::printf("E15 / adaptive parameters (Section 7 future work): fixed vs\n"
              "cost-model timeouts across the same granularity sweep, with\n"
              "eager failure suspicion (1 attempt) to expose the risk\n");
  support::TextTable t2({"cost factor", "fixed: timeouts", "fixed: eff",
                         "model: timeouts", "model: eff"});
  for (const double factor : adaptive_factors) {
    bnb::RandomTreeConfig tree_cfg;
    tree_cfg.target_nodes = 4001;
    tree_cfg.cost_mean = 0.01;
    tree_cfg.seed = 23;
    bnb::BasicTree tree = bnb::BasicTree::random(tree_cfg);
    tree.scale_costs(factor);
    bnb::TreeProblem problem(&tree, /*honor_bounds=*/false);
    const double ideal = tree.total_cost() / 8.0;

    auto run = [&](bool model) {
      sim::ClusterConfig cfg = bench::small_cluster_config(8, 23);
      cfg.time_limit = 3e6;
      cfg.worker.attempts_before_recovery = 1;  // eager timeout suspicion
      cfg.worker.model_adaptivity = model;
      return sim::SimCluster::run(problem, cfg);
    };
    const sim::ClusterResult fixed = run(false);
    const sim::ClusterResult model = run(true);
    auto timeouts = [](const sim::ClusterResult& res) {
      std::uint64_t n = 0;
      for (const auto& w : res.workers) n += w.request_timeouts;
      return n;
    };
    auto eff = [&](const sim::ClusterResult& res) {
      return res.all_live_halted ? ideal / res.makespan : -1.0;
    };
    adaptive_sweep.push_back(AdaptiveSample{
        factor, timeouts(fixed), fixed.redundant_expansions, eff(fixed),
        timeouts(model), model.redundant_expansions, eff(model)});
  auto pct = [&](const sim::ClusterResult& res) {
      return res.all_live_halted
                 ? support::TextTable::pct(ideal / res.makespan, 1)
                 : std::string("-");
    };
    t2.row({support::TextTable::num(factor, 1),
            std::to_string(timeouts(fixed)), pct(fixed),
            std::to_string(timeouts(model)), pct(model)});
  }
  std::printf("%s", t2.render().c_str());
  std::printf("\nexpected shape: with fixed fine-grained timeouts, coarse nodes make\n"
              "busy peers look dead -> spurious recovery -> redundant work; the\n"
              "cost-model controller scales its request timeout with the observed\n"
              "node cost and keeps message-priced knobs (backoff, flush) at base.\n");

  FILE* json = bench::open_bench_json("BENCH_granularity.json", "granularity");
  if (json == nullptr) return 1;
  std::fprintf(json, "  \"workers\": 8,\n  \"smoke\": %s,\n  \"sweep\": [\n",
               smoke ? "true" : "false");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepSample& s = sweep[i];
    std::fprintf(json,
                 "    {\"cost_factor\": %.1f, \"makespan_s\": %.3f, "
                 "\"efficiency\": %.4f, \"idle_lb_share\": %.4f, "
                 "\"msgs_per_node\": %.3f, \"redundant_expansions\": %llu}%s\n",
                 s.factor, s.makespan, s.efficiency, s.waste, s.msgs_per_node,
                 static_cast<unsigned long long>(s.redundant),
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"adaptive\": [\n");
  for (std::size_t i = 0; i < adaptive_sweep.size(); ++i) {
    const AdaptiveSample& s = adaptive_sweep[i];
    std::fprintf(json,
                 "    {\"cost_factor\": %.1f, \"fixed_timeouts\": %llu, "
                 "\"fixed_redundant\": %llu, \"fixed_efficiency\": %.4f, "
                 "\"model_timeouts\": %llu, \"model_redundant\": %llu, "
                 "\"model_efficiency\": %.4f}%s\n",
                 s.factor, static_cast<unsigned long long>(s.fixed_timeouts),
                 static_cast<unsigned long long>(s.fixed_redundant),
                 s.fixed_efficiency,
                 static_cast<unsigned long long>(s.model_timeouts),
                 static_cast<unsigned long long>(s.model_redundant),
                 s.model_efficiency,
                 i + 1 < adaptive_sweep.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_granularity.json\n");
  return 0;
}
