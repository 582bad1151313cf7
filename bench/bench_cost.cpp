// E16 — cost-model adaptivity: the fixed policy vs the cost-model
// controller (core/cost_model.hpp) on the E15 granularity setup.
//
// At coarse granularity the fixed request timeout misreads busy peers as
// dead ones (hundreds of request timeouts at cost factor 10). The
// CostController raises only the time-priced knob (the request timeout),
// keeps the message-priced knobs (report flush, idle backoff) at base, and
// sizes report batches and work grants from the same EWMA. Target:
// efficiency within one point of the fixed policy with at most
// kMaxModelTimeouts timeouts.
//
// Also emits the work-mix ledger ratios (model vs fixed) used by CI's
// regression check: `--baseline <file>` compares the measured metrics
// against committed "key value tolerance" lines and fails on drift.
// `--smoke` shrinks the factor sweep for CI.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_timing.hpp"
#include "bench/workloads.hpp"

namespace {

struct PolicyRow {
  double factor = 0.0;
  const char* policy = "";
  std::uint64_t timeouts = 0;
  std::uint64_t redundant = 0;
  double efficiency = -1.0;  // -1: did not halt in the time limit
  double expansions = 0.0;
  double bytes_per_node = 0.0;
  double redundant_share = 0.0;
  std::uint64_t retunes = 0;
};

/// Acceptance bound on the controller's timeouts at cost factor >= 10: the
/// band `f10_model_timeouts 16 16` of bench/baselines/cost_smoke.txt.
constexpr std::uint64_t kMaxModelTimeouts = 32;

/// "key value tolerance" lines ('#' comments); returns false on violation.
bool check_baseline(const char* path,
                    const std::map<std::string, double>& actual) {
  FILE* f = std::fopen(path, "r");
  if (f == nullptr) {
    std::printf("baseline FAILED: cannot read %s\n", path);
    return false;
  }
  bool ok = true;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (line[0] == '#' || line[0] == '\n') continue;
    char key[128];
    double expected = 0.0;
    double tolerance = 0.0;
    if (std::sscanf(line, "%127s %lf %lf", key, &expected, &tolerance) != 3) {
      std::printf("baseline FAILED: malformed line: %s", line);
      ok = false;
      continue;
    }
    const auto it = actual.find(key);
    if (it == actual.end()) {
      std::printf("baseline FAILED: unknown key %s\n", key);
      ok = false;
      continue;
    }
    if (std::fabs(it->second - expected) > tolerance) {
      std::printf("baseline FAILED: %s = %.6g, expected %.6g +/- %.6g\n", key,
                  it->second, expected, tolerance);
      ok = false;
    } else {
      std::printf("baseline ok: %s = %.6g (expected %.6g +/- %.6g)\n", key,
                  it->second, expected, tolerance);
    }
  }
  std::fclose(f);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ftbb;
  bool smoke = false;
  const char* baseline = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline = argv[i + 1];
    }
  }
  std::printf("E16 / cost-model adaptivity: fixed vs CostController, "
              "8 processors%s\n\n", smoke ? " (smoke)" : "");

  const std::vector<double> factors =
      smoke ? std::vector<double>{10.0} : std::vector<double>{1.0, 10.0, 30.0};

  std::vector<PolicyRow> rows;
  std::map<std::string, double> metrics;
  bool acceptance_ok = true;
  support::TextTable table({"cost factor", "policy", "timeouts", "redundant",
                            "efficiency", "bytes/node", "retunes"});
  for (const double factor : factors) {
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
    std::map<std::string, PolicyRow> by_policy;
    for (const bool model : {false, true}) {
      const char* name = model ? "model" : "fixed";
      const sim::ClusterResult res = run(model);
      PolicyRow row;
      row.factor = factor;
      row.policy = name;
      row.timeouts = res.work[core::WorkItem::kRequestTimeouts];
      row.redundant = res.redundant_expansions;
      row.efficiency = res.all_live_halted ? ideal / res.makespan : -1.0;
      row.expansions =
          static_cast<double>(res.work[core::WorkItem::kExpansions]);
      row.bytes_per_node =
          static_cast<double>(res.work[core::WorkItem::kWireBytesSent]) /
          static_cast<double>(res.total_expanded);
      row.redundant_share = static_cast<double>(res.redundant_expansions) /
                            static_cast<double>(res.total_expanded);
      row.retunes = res.work[core::WorkItem::kControllerRetunes];
      rows.push_back(row);
      by_policy[name] = row;
      table.row({support::TextTable::num(factor, 1), name,
                 std::to_string(row.timeouts), std::to_string(row.redundant),
                 row.efficiency >= 0.0
                     ? support::TextTable::pct(row.efficiency, 1)
                     : "-",
                 support::TextTable::num(row.bytes_per_node, 1),
                 std::to_string(row.retunes)});
    }

    // Work-mix regression metrics at each factor (keys carry the factor).
    char key[64];
    const PolicyRow& fixed = by_policy["fixed"];
    const PolicyRow& model = by_policy["model"];
    auto put = [&](const char* name, double v) {
      std::snprintf(key, sizeof(key), "f%g_%s", factor, name);
      metrics[key] = v;
    };
    put("model_timeouts", static_cast<double>(model.timeouts));
    put("model_efficiency", model.efficiency);
    put("fixed_efficiency", fixed.efficiency);
    put("model_expansion_ratio", model.expansions / fixed.expansions);
    put("model_bytes_per_node", model.bytes_per_node);
    put("model_redundant_share", model.redundant_share);

    // Acceptance: at coarse granularity the model policy keeps the
    // efficiency of the fixed policy (within one point) with at most
    // kMaxModelTimeouts request timeouts.
    if (factor >= 10.0) {
      const bool eff_ok = model.efficiency >= fixed.efficiency - 0.01;
      const bool to_ok = model.timeouts <= kMaxModelTimeouts;
      if (!eff_ok || !to_ok) {
        std::printf("ACCEPTANCE FAILED at factor %.1f: model eff %.4f vs fixed "
                    "%.4f (need within 0.01), model timeouts %llu (need <= "
                    "%llu)\n",
                    factor, model.efficiency, fixed.efficiency,
                    static_cast<unsigned long long>(model.timeouts),
                    static_cast<unsigned long long>(kMaxModelTimeouts));
        acceptance_ok = false;
      }
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nshape: the controller matches the fixed policy's efficiency —\n"
              "message-priced knobs stay at base — while its EWMA-scaled request\n"
              "timeout keeps failure suspicion quiet on coarse nodes.\n");

  FILE* json = bench::open_bench_json("BENCH_cost.json", "cost");
  if (json == nullptr) return 1;
  std::fprintf(json, "  \"workers\": 8,\n  \"smoke\": %s,\n  \"rows\": [\n",
               smoke ? "true" : "false");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PolicyRow& r = rows[i];
    std::fprintf(json,
                 "    {\"cost_factor\": %.1f, \"policy\": \"%s\", "
                 "\"timeouts\": %llu, \"redundant\": %llu, "
                 "\"efficiency\": %.4f, \"expansions\": %.0f, "
                 "\"bytes_per_node\": %.2f, \"redundant_share\": %.5f, "
                 "\"controller_retunes\": %llu}%s\n",
                 r.factor, r.policy,
                 static_cast<unsigned long long>(r.timeouts),
                 static_cast<unsigned long long>(r.redundant), r.efficiency,
                 r.expansions, r.bytes_per_node, r.redundant_share,
                 static_cast<unsigned long long>(r.retunes),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_cost.json\n");

  if (baseline != nullptr && !check_baseline(baseline, metrics)) return 1;
  if (!acceptance_ok) return 1;
  return 0;
}
