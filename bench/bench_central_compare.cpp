// E11 — comparison with the centralized manager/worker scheme (Section 3).
//
// "While clearly not scalable, this approach simplifies the management of
// information... the central manager remains an obstacle to both
// scalability and fault tolerance. Reliability can be achieved through
// checkpointing, but this approach assumes that there exists at least one
// reliable process/machine."
//
// Exits nonzero unless the paper's shape holds: every FTBB run halts on the
// exact optimum; central does too in every row, after a worker crash and
// after a checkpointed manager crash; and it does not finish when the
// manager crashes without checkpoints.
#include <cstdio>

#include "bench/workloads.hpp"
#include "central/central.hpp"

int main() {
  using namespace ftbb;
  std::printf("E11 / FTBB vs centralized manager-worker\n\n");

  bnb::RandomTreeConfig tree_cfg;
  tree_cfg.target_nodes = 4001;
  tree_cfg.cost_mean = 0.01;
  tree_cfg.seed = 59;
  const bnb::BasicTree tree = bnb::BasicTree::random(tree_cfg);
  bnb::TreeProblem problem(&tree, /*honor_bounds=*/false);

  bool shape_holds = true;
  const auto expect = [&shape_holds](bool holds, const char* what) {
    if (!holds) std::printf("SHAPE FAIL: %s\n", what);
    shape_holds = shape_holds && holds;
  };
  const auto ftbb_exact = [&tree](const sim::ClusterResult& res) {
    return res.all_live_halted && res.solution == tree.optimal_value();
  };
  const auto central_exact = [&tree](const central::CentralResult& res) {
    return res.completed && res.solution == tree.optimal_value();
  };

  // Crash schedules are in the baseline's network ids: node 0 is the manager.
  const auto crash_at = [](std::uint32_t node, double time) {
    fault::FaultSchedule schedule;
    schedule.crashes.push_back(fault::CrashAt{node, time});
    return schedule;
  };

  central::CentralConfig central_cfg;
  central_cfg.batch_size = 4;
  central_cfg.reissue_timeout = 0.3;
  central_cfg.audit_interval = 0.2;

  // Both message columns count a node's sent plus received messages.
  const auto messages = [](const core::WorkLedger& ledger) {
    return ledger[core::WorkItem::kMsgsSent] + ledger[core::WorkItem::kMsgsReceived];
  };

  std::printf("(a) scalability: manager message load vs processor count\n");
  support::TextTable ta({"procs", "FTBB makespan (s)", "central makespan (s)",
                         "manager msgs", "busiest FTBB node msgs"});
  for (const std::uint32_t procs : {2u, 4u, 8u, 16u, 32u}) {
    const sim::ClusterResult ours =
        sim::SimCluster::run(problem, bench::small_cluster_config(procs, 59));
    const central::CentralResult central = central::CentralSim::run(
        problem, procs, central_cfg, {}, {}, 3e4, 59);
    expect(ftbb_exact(ours), "an FTBB scalability run missed the optimum");
    expect(central_exact(central), "a central scalability run missed the optimum");
    std::uint64_t busiest = 0;
    for (const core::WorkLedger& w : ours.worker_ledgers) {
      busiest = std::max(busiest, messages(w));
    }
    ta.row({std::to_string(procs),
            ours.all_live_halted ? support::TextTable::num(ours.makespan, 2) : "-",
            central.completed ? support::TextTable::num(central.makespan, 2) : "-",
            std::to_string(messages(central.worker_ledgers[0])), std::to_string(busiest)});
  }
  std::printf("%s\n", ta.render().c_str());

  std::printf("(b) fault tolerance: who survives what (8 workers)\n");
  const sim::ClusterResult ours_base =
      sim::SimCluster::run(problem, bench::small_cluster_config(8, 59));
  const central::CentralResult central_base =
      central::CentralSim::run(problem, 8, central_cfg, {}, {}, 3e4, 59);
  expect(ftbb_exact(ours_base), "the fault-free FTBB run missed the optimum");
  expect(central_exact(central_base), "the fault-free central run missed the optimum");
  support::TextTable tb({"scenario", "scheme", "finished", "makespan (s)",
                         "notes"});
  {
    // Worker crash: both tolerate.
    sim::ClusterConfig cfg = bench::small_cluster_config(8, 59);
    cfg.crashes = {{2, ours_base.makespan * 0.4}};
    cfg.time_limit = 3e4;
    const auto ours = sim::SimCluster::run(problem, cfg);
    const auto central = central::CentralSim::run(
        problem, 8, central_cfg, {}, crash_at(3, central_base.makespan * 0.4), 3e4, 59);
    expect(ftbb_exact(ours), "FTBB did not survive a worker crash exactly");
    expect(central_exact(central), "central did not survive a worker crash exactly");
    tb.row({"one worker dies", "FTBB", ours.all_live_halted ? "yes" : "NO",
            support::TextTable::num(ours.makespan, 2), "complement recovery"});
    tb.row({"one worker dies", "central", central.completed ? "yes" : "NO",
            support::TextTable::num(central.makespan, 2),
            std::to_string(central.worker_ledgers[0][core::WorkItem::kRecoveries]) +
                " batch reissues"});
  }
  {
    // Coordinator-equivalent crash.
    sim::ClusterConfig cfg = bench::small_cluster_config(8, 59);
    cfg.crashes = {{0, ours_base.makespan * 0.4}};
    cfg.time_limit = 3e4;
    const auto ours = sim::SimCluster::run(problem, cfg);
    const auto central_plain = central::CentralSim::run(
        problem, 8, central_cfg, {}, crash_at(0, central_base.makespan * 0.4),
        central_base.makespan * 6.0, 59);
    central::CentralConfig ckpt_cfg = central_cfg;
    ckpt_cfg.checkpointing = true;
    ckpt_cfg.checkpoint_interval = 0.5;
    ckpt_cfg.restart_delay = 0.5;
    const auto central_ckpt = central::CentralSim::run(
        problem, 8, ckpt_cfg, {}, crash_at(0, central_base.makespan * 0.4), 3e4, 59);
    expect(ftbb_exact(ours), "FTBB did not survive node 0's crash exactly");
    expect(!central_plain.completed,
           "central finished although its manager crashed without checkpoints");
    expect(central_exact(central_ckpt),
           "central did not survive a checkpointed manager crash exactly");
    tb.row({"node 0 dies", "FTBB", ours.all_live_halted ? "yes" : "NO",
            support::TextTable::num(ours.makespan, 2),
            "no special nodes exist"});
    tb.row({"node 0 dies", "central (no ckpt)",
            central_plain.completed ? "yes" : "NO",
            support::TextTable::num(central_plain.makespan, 2),
            "manager is a single point of failure"});
    tb.row({"node 0 dies", "central (ckpt)",
            central_ckpt.completed ? "yes" : "NO",
            support::TextTable::num(central_ckpt.makespan, 2),
            std::to_string(central_ckpt.worker_ledgers[0][core::WorkItem::kIncarnations] - 1) +
                " restart(s) from checkpoint"});
  }
  std::printf("%s", tb.render().c_str());
  std::printf("\nexpected shape: the manager handles O(total work) messages — the\n"
              "bottleneck the paper motivates against — and its crash is fatal\n"
              "without checkpointing (which presumes a reliable machine); FTBB\n"
              "spreads the load and survives any single node's loss.\n");
  return shape_holds ? 0 : 1;
}
