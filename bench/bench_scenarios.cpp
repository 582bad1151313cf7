// E18 — scenario sweep: the fault-tolerance overhead of each backend under
// a ladder of increasingly hostile fault schedules, on one fixed workload.
//
// For every (backend, schedule) cell the table reports completion, solution
// quality, makespan stretch over the backend's own failure-free run,
// redundant (redone) work, and bytes on the wire. This is the scenario
// engine exercising what the paper argues qualitatively in Section 3: the
// decentralized mechanism pays a modest redundancy cost where the
// centralized baseline pays in manager traffic and DIB pays in wholesale
// redo of donated subtrees.
//
// `--threads=N` (or FTBB_SIM_THREADS) shards the simulation kernel; every
// simulated number is bit-identical to the sequential run. `--rt` adds the
// thread-backed real-time runtime as a fourth backend — the same schedules
// replayed by the FaultDriver against wall-clock deadlines (rt makespans
// are wall seconds and not deterministic). `--smoke` runs a reduced ladder
// for CI. Results are also written to BENCH_scenarios.json.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_timing.hpp"
#include "sim/scenario.hpp"
#include "support/table.hpp"

namespace {

struct Cell {
  std::string backend;
  std::string schedule;
  bool completed = false;
  bool optimal = false;
  double makespan = 0.0;
  double stretch = 0.0;
  std::uint64_t redone = 0;
  std::uint64_t lost = 0;
  std::uint64_t bytes_sent = 0;
};

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ftbb;

  const std::uint32_t threads = sim::parse_threads_flag(argc, argv);
  const bool smoke = has_flag(argc, argv, "--smoke");
  const bool with_rt = has_flag(argc, argv, "--rt");

  struct Schedule {
    const char* name;
    sim::FaultPlan plan;
  };
  std::vector<Schedule> schedules;
  schedules.push_back({"none", {}});
  {
    sim::FaultPlan p;
    p.crash(2, 0.02);
    schedules.push_back({"one crash", p});
  }
  if (!smoke) {
    sim::FaultPlan p;
    p.loss(0.0, 1e9, 0.1);
    schedules.push_back({"10% loss", p});
  }
  if (!smoke) {
    sim::FaultPlan p;
    p.split_halves(0.02, 0.2);
    schedules.push_back({"partition 0.2s", p});
  }
  {
    sim::FaultPlan p;
    p.crash(1, 0.015).crash(2, 0.03).loss(0.0, 1e9, 0.1).split_halves(0.05, 0.2);
    schedules.push_back({"combined", p});
  }

  std::vector<sim::Backend> backends = {sim::Backend::kFtbb, sim::Backend::kCentral,
                                        sim::Backend::kDib};
  if (with_rt) backends.push_back(sim::Backend::kRt);

  std::printf("E18 / scenario sweep: fault ladder x backend, knapsack n=14%s\n\n",
              with_rt ? " (+rt wall-clock runtime)" : "");
  std::vector<Cell> cells;
  bool ok = true;
  for (const sim::Backend backend : backends) {
    std::printf("backend: %s%s\n", sim::to_string(backend),
                backend == sim::Backend::kRt ? " (makespans are wall seconds)"
                                             : "");
    support::TextTable table({"schedule", "done", "optimal", "makespan (s)",
                              "stretch", "redone", "lost", "KB sent"});
    double baseline = 0.0;
    for (const Schedule& schedule : schedules) {
      sim::ScenarioSpec spec;
      spec.name = schedule.name;
      spec.backend = backend;
      spec.sim_threads = threads;
      spec.workers = 4;
      spec.seed = 5;
      spec.workload.kind = sim::WorkloadKind::kKnapsack;
      spec.workload.size = 14;
      spec.workload.seed = 5;
      spec.workload.cost_mean = 2e-3;
      spec.tune_for_small_problems();
      spec.faults = schedule.plan;
      const sim::ScenarioReport r = sim::ScenarioRunner::run(spec);
      if (baseline == 0.0) baseline = r.makespan;
      ok = ok && r.completed && r.optimum_matched;
      Cell cell;
      cell.backend = sim::to_string(backend);
      cell.schedule = schedule.name;
      cell.completed = r.completed;
      cell.optimal = r.optimum_matched;
      cell.makespan = r.makespan;
      cell.stretch = baseline > 0 ? r.makespan / baseline : 0.0;
      cell.redone = r.redundant_expansions;
      cell.lost = r.messages_lost;
      cell.bytes_sent = r.bytes_sent;
      cells.push_back(cell);
      table.row({schedule.name, r.completed ? "yes" : "NO",
                 r.optimum_matched ? "yes" : "NO",
                 support::TextTable::num(r.makespan, 3),
                 support::TextTable::num(cell.stretch, 2),
                 std::to_string(r.redundant_expansions),
                 std::to_string(r.messages_lost),
                 support::TextTable::num(static_cast<double>(r.bytes_sent) / 1024.0, 1)});
    }
    std::printf("%s\n", table.render().c_str());
  }

  FILE* json = bench::open_bench_json("BENCH_scenarios.json", "scenarios");
  if (json == nullptr) return 1;
  std::fprintf(json,
               "  \"workload\": \"knapsack-14\",\n"
               "  \"smoke\": %s,\n  \"cells\": [\n",
               smoke ? "true" : "false");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(json,
                 "    {\"backend\": \"%s\", \"schedule\": \"%s\", "
                 "\"completed\": %s, \"optimal\": %s, \"makespan_s\": %.6f, "
                 "\"stretch\": %.4f, \"redone\": %llu, \"lost\": %llu, "
                 "\"bytes_sent\": %llu}%s\n",
                 c.backend.c_str(), c.schedule.c_str(),
                 c.completed ? "true" : "false", c.optimal ? "true" : "false",
                 c.makespan, c.stretch,
                 static_cast<unsigned long long>(c.redone),
                 static_cast<unsigned long long>(c.lost),
                 static_cast<unsigned long long>(c.bytes_sent),
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_scenarios.json\n");
  return ok ? 0 : 1;
}
