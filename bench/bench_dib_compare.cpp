// E10 — comparison with DIB (Section 5.5).
//
// Same workload under our decentralized algorithm and under the DIB-style
// baseline, failure free and with failures. The paper's qualitative claims:
//  * both are decentralized and fault tolerant with low-cost protocols;
//  * DIB needs the root of its responsibility hierarchy to survive — our
//    algorithm has no such node;
//  * a DIB machine failure also voids the bookkeeping for problems it
//    donated onward, so its donor redoes work third machines already
//    finished; our reports survive at whichever members received them.
#include <cstdio>

#include "bench/workloads.hpp"
#include "dib/dib.hpp"

int main() {
  using namespace ftbb;
  std::printf("E10 / FTBB vs DIB on one workload, 8 machines\n\n");

  bnb::RandomTreeConfig tree_cfg;
  tree_cfg.target_nodes = 4001;
  tree_cfg.cost_mean = 0.01;
  tree_cfg.seed = 53;
  const bnb::BasicTree tree = bnb::BasicTree::random(tree_cfg);
  bnb::TreeProblem problem(&tree, /*honor_bounds=*/false);

  const auto crash_at = [](std::uint32_t machine, double time) {
    fault::FaultSchedule schedule;
    schedule.crashes.push_back(fault::CrashAt{machine, time});
    return schedule;
  };

  dib::DibConfig dib_cfg;
  dib_cfg.work_request_timeout = 0.03;
  dib_cfg.request_backoff = 0.01;
  dib_cfg.audit_interval = 0.5;
  // A donated subtree legitimately stays outstanding for a large fraction
  // of the run; the timeout must exceed that or donors redo live work.
  // This knob IS DIB's structural tension: patient donors recover slowly
  // after real failures, eager donors duplicate healthy donations.
  dib_cfg.donation_timeout = 8.0;

  const sim::ClusterResult ours_base =
      sim::SimCluster::run(problem, bench::small_cluster_config(8, 53));
  const dib::DibResult dib_base =
      dib::DibSim::run(problem, 8, dib_cfg, {}, {}, 3e4, 53);
  if (!ours_base.all_live_halted || !dib_base.completed) {
    std::printf("baseline FAILED\n");
    return 1;
  }

  support::TextTable table({"scenario", "algorithm", "finished", "solution",
                            "makespan (s)", "redundant"});
  auto add_ftbb = [&](const char* scenario, const sim::ClusterResult& res) {
    table.row({scenario, "FTBB", res.all_live_halted ? "yes" : "NO",
               res.solution == tree.optimal_value() ? "exact" : "WRONG",
               support::TextTable::num(res.makespan, 2),
               std::to_string(res.redundant_expansions)});
  };
  auto add_dib = [&](const char* scenario, const dib::DibResult& res) {
    table.row({scenario, "DIB", res.completed ? "yes" : "NO",
               res.completed && res.solution == tree.optimal_value() ? "exact"
                                                                     : "-",
               support::TextTable::num(res.makespan, 2),
               std::to_string(res.redundant_expansions)});
  };

  add_ftbb("no failures", ours_base);
  add_dib("no failures", dib_base);

  // Mid-machine failure: both survive; compare the redo bill.
  {
    sim::ClusterConfig cfg = bench::small_cluster_config(8, 53);
    cfg.crashes = {{3, ours_base.makespan * 0.5}};
    cfg.time_limit = 3e4;
    add_ftbb("machine 3 dies", sim::SimCluster::run(problem, cfg));
    add_dib("machine 3 dies",
            dib::DibSim::run(problem, 8, dib_cfg, {},
                             crash_at(3, dib_base.makespan * 0.5), 3e4, 53));
  }

  // Root/holder failure: FTBB has no special node; machine 0 merely held
  // the root problem initially. DIB's responsibility hierarchy is rooted at
  // machine 0 and cannot conclude without it.
  {
    sim::ClusterConfig cfg = bench::small_cluster_config(8, 53);
    cfg.crashes = {{0, ours_base.makespan * 0.5}};
    cfg.time_limit = 3e4;
    add_ftbb("machine 0 dies", sim::SimCluster::run(problem, cfg));
    add_dib("machine 0 dies",
            dib::DibSim::run(problem, 8, dib_cfg, {},
                             crash_at(0, dib_base.makespan * 0.5),
                             dib_base.makespan * 6.0, 53));
  }

  // All but one.
  {
    sim::ClusterConfig cfg = bench::small_cluster_config(8, 53);
    for (core::NodeId v = 1; v < 8; ++v) {
      cfg.crashes.push_back({v, ours_base.makespan * (0.3 + 0.05 * v)});
    }
    cfg.time_limit = 3e4;
    add_ftbb("7 of 8 die", sim::SimCluster::run(problem, cfg));
    fault::FaultSchedule faults;
    for (std::uint32_t v = 1; v < 8; ++v) {
      faults.crashes.push_back(fault::CrashAt{v, dib_base.makespan * (0.3 + 0.05 * v)});
    }
    add_dib("7 of 8 die", dib::DibSim::run(problem, 8, dib_cfg, {}, faults,
                                           dib_base.makespan * 20.0, 53));
  }

  std::printf("%s", table.render().c_str());
  std::printf("\nexpected shape: comparable cost without failures; DIB cannot\n"
              "finish when machine 0 (the root of its responsibility hierarchy)\n"
              "dies, while FTBB treats all processes identically and survives\n"
              "even 7 of 8 failures.\n");
  return 0;
}
