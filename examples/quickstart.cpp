// Quickstart: solve a knapsack instance with the decentralized
// fault-tolerant branch-and-bound algorithm on the simulator.
//
//   $ ./quickstart [workers] [items] [seed]
//
// Walks through the whole public API surface: build a problem model, pick a
// worker configuration, run a simulated cluster, inspect the result.
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "bnb/knapsack.hpp"
#include "sim/cluster.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace ftbb;
  const std::uint32_t workers = argc > 1 ? std::atoi(argv[1]) : 4;
  const std::size_t items = argc > 2 ? std::atoi(argv[2]) : 22;
  const std::uint64_t seed = argc > 3 ? std::atoll(argv[3]) : 2;

  // 1. A problem: strongly correlated 0/1 knapsack (hard for B&B).
  const auto instance =
      bnb::KnapsackInstance::strongly_correlated(items, 100, 0.5, seed);
  bnb::NodeCostModel cost;
  cost.mean = 0.01;  // 10 ms of (virtual) work per node
  bnb::KnapsackModel model(instance, cost);

  // 2. A worker configuration: the paper's knobs.
  core::WorkerConfig worker;
  worker.report_batch = 8;        // c: completions per work report
  worker.report_fanout = 2;       // m: random recipients per report
  worker.report_flush_interval = 0.25;
  worker.table_gossip_interval = 1.0;
  worker.work_request_timeout = 0.02;
  worker.recovery = core::RecoveryPolicy::kNearLastLocal;

  // 3. A cluster: network follows the paper's 1.5 + 0.005*L ms model.
  sim::ClusterConfig cluster;
  cluster.workers = workers;
  cluster.worker = worker;
  cluster.seed = seed;

  const sim::ClusterResult result = sim::SimCluster::run(model, cluster);

  // 4. Results.
  std::printf("problem        : %s, %zu items, capacity %lld\n",
              model.name().c_str(), instance.items(),
              static_cast<long long>(instance.capacity));
  std::printf("workers        : %u\n", workers);
  std::printf("terminated     : %s\n", result.all_live_halted ? "yes" : "NO");
  std::printf("best profit    : %.0f\n", -result.solution);
  const std::optional<double> optimum = model.known_optimal();
  const bool exact = !optimum.has_value() || result.solution == *optimum;
  if (optimum.has_value()) {
    std::printf("optimal profit : %.0f (%s)\n", -*optimum,
                exact ? "match" : "MISMATCH");
  }
  std::printf("makespan       : %.2f virtual seconds\n", result.makespan);
  std::printf("nodes expanded : %llu (%llu unique, %llu redundant)\n",
              static_cast<unsigned long long>(result.total_expanded),
              static_cast<unsigned long long>(result.unique_expanded),
              static_cast<unsigned long long>(result.redundant_expansions));
  std::printf("messages       : %llu (%.1f KB)\n",
              static_cast<unsigned long long>(result.net.messages_sent),
              static_cast<double>(result.net.bytes_sent) / 1024.0);

  support::TextTable table({"category", "time (s)", "share"});
  const double total = result.work.time_all();
  for (int k = 0; k < core::kCostKinds; ++k) {
    table.row({to_string(static_cast<core::CostKind>(k)),
               support::TextTable::num(result.work.seconds[k], 2),
               support::TextTable::pct(result.work.seconds[k] / total, 1)});
  }
  std::printf("\nper-category time across all workers:\n%s", table.render().c_str());
  return result.all_live_halted && exact ? 0 : 1;
}
