// The simulation base of the paper's two baselines (central/, dib/).
//
// The centralized manager/worker scheme and DIB run on the same plumbing: a
// kernel, a network over every node, a FaultDriver that replays the schedule
// on the kernel's control stream, and the tail of the run that fills the
// outcome. BaselineSim owns that plumbing and one WorkLedger and one
// ExpansionLog per network node; a baseline derives from it, adds its
// protocol state and implements crash(), revive() and join(). Every message
// goes through send(), which counts it in the sender's ledger when it is
// sent and in the receiver's when it arrives, where the Network counts a
// delivery. A node's ledger and log are written in its own context or by a
// control event at a barrier, so the sharded executor needs no lock.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "fault/driver.hpp"
#include "sim/kernel.hpp"
#include "sim/network.hpp"
#include "sim/outcome.hpp"

namespace ftbb::sim {

struct BaselineSim : fault::IFaultBackend, fault::IFaultClock {
  /// `nodes` network nodes, each with an empty log and a ledger of one
  /// incarnation; the network draws from `net_rng`.
  BaselineSim(const NetConfig& net_config, std::uint32_t nodes, std::uint32_t sim_threads,
              support::Rng net_rng, double limit)
      : kernel(make_executor_config(net_config, nodes, resolve_sim_threads(sim_threads))),
        net(&kernel, net_config, net_rng, nodes),
        ledgers(nodes),
        logs(nodes),
        time_limit(limit) {
    for (core::WorkLedger& ledger : ledgers) ledger[core::WorkItem::kIncarnations] = 1;
  }

  /// Sends `bytes` from `from` to `to` now; `deliver` runs on arrival.
  template <typename F>
  void send(std::uint32_t from, std::uint32_t to, std::size_t bytes, F&& deliver) {
    ++ledgers[from][core::WorkItem::kMsgsSent];
    ledgers[from][core::WorkItem::kWireBytesSent] += bytes;
    net.send(from, to, bytes, kernel.now(),
             [this, to, bytes, deliver = std::forward<F>(deliver)]() mutable {
               ++ledgers[to][core::WorkItem::kMsgsReceived];
               ledgers[to][core::WorkItem::kWireBytesReceived] += bytes;
               deliver();
             });
  }

  /// Logs and counts an expansion of `code` on `node` that costs the model
  /// `cost` seconds.
  void note_expansion(std::uint32_t node, const core::PathCode& code, double cost) {
    logs[node].add(code, cost);
    ++ledgers[node][core::WorkItem::kExpansions];
    ledgers[node].time(core::CostKind::kBB) += cost;
  }

  /// The computation is finished, now.
  void conclude() {
    concluded = true;
    concluded_at = kernel.now();
  }

  /// Arms `faults` after the events the baseline scheduled so far, runs to
  /// the limit and fills `out`'s common tail: the makespan (the conclusion,
  /// or where the run stopped), the ledgers and their sum, the expansion
  /// account and the traffic.
  void run(fault::FaultSchedule faults, RunOutcome& out) {
    fault::FaultDriver driver(std::move(faults), this, this);
    driver.arm(time_limit);
    out.hit_time_limit = kernel.run(time_limit).hit_time_limit;
    out.makespan = concluded ? concluded_at : std::min(kernel.now(), time_limit);
    out.worker_ledgers = ledgers;
    for (const core::WorkLedger& ledger : ledgers) out.work.add(ledger);
    std::vector<const ExpansionLog*> accounted;
    for (const ExpansionLog& log : logs) accounted.push_back(&log);
    out.account_expansions(accounted);
    out.net = net.stats();
  }

  void abandon_join(std::uint32_t /*node*/) override {}
  void set_partition(const Partition& partition) override { net.add_partition(partition); }
  void set_loss_rule(const LossRule& rule) override { net.add_loss_rule(rule); }
  void call_at(double at, Callback fn) override { kernel.at(at, std::move(fn)); }

  Kernel kernel;
  Network net;
  std::vector<core::WorkLedger> ledgers;  // per network node, never resized
  std::vector<ExpansionLog> logs;         // per network node, never resized
  double time_limit;
  bool concluded = false;  // written in the concluding node's context
  double concluded_at = 0.0;
};

}  // namespace ftbb::sim
