// Shared workloads and configurations for the benchmark harness.
//
// Two reference problems drive the paper's evaluation (Section 6.3):
//
//  * the SMALL problem (Figure 3): a real B&B tree recorded from an
//    instrumented knapsack run (a "basic tree", Section 6.2) at the paper's
//    0.01 s/node granularity. The paper's instance expands ~3,500 nodes.
//    Recording takes the FULL tree, which doubles with each item: at seed 2
//    the 18-item instance records 263,019 nodes and best-first search
//    expands 1,632 of them, 19 items record 525,761 nodes but expand only
//    782, and 20 items (1,051,743 nodes) pass small_problem()'s
//    600,000-node cap. Same granularity regime, so the
//    overhead-vs-processors shape is preserved;
//
//  * the LARGE problem (Table 1 / Figure 4): ~79,600 expanded nodes at a
//    mean of 3.47 s per node (~76.7 hours of uniprocessor work). Recording
//    a real tree of this size without elimination is infeasible — the paper
//    says as much — so, like the paper's own scalability runs, it is a
//    synthetic basic tree whose node count is the controlled quantity.
//
// Both use the paper's communication model: latency = 1.5 + 0.005*L ms.
//
// Protocol timeouts scale with subproblem granularity: a work request must
// outlive a peer's current expansion or busy peers masquerade as dead ones
// (the paper's closing observation that parameters must adapt to "execution
// time per subproblem").
#pragma once

#include "bnb/basic_tree.hpp"
#include "bnb/knapsack.hpp"
#include "core/worker.hpp"
#include "sim/cluster.hpp"
#include "support/table.hpp"

namespace ftbb::bench {

// Instance constants: the 18-item, seed-2 knapsack above, and Table 1's
// ~79,600 nodes at 3.47 s each (the generated tree's costs sum to the
// paper's 76.7 uniprocessor hours).
inline constexpr std::size_t kSmallItems = 18;
inline constexpr std::uint64_t kSmallSeed = 2;
inline constexpr double kSmallNodeCost = 0.01;   // paper Figure 3
inline constexpr std::uint64_t kLargeNodes = 79601;
inline constexpr double kLargeNodeCost = 3.47;   // paper Table 1

/// Figure 3 problem: recorded knapsack basic tree (263,019 nodes);
/// sequential best-first B&B expands 1,632 of them at 0.01 s/node.
inline bnb::BasicTree small_problem() {
  bnb::NodeCostModel cost;
  cost.mean = kSmallNodeCost;
  cost.cv = 0.3;
  cost.seed = 5;
  const auto instance = bnb::KnapsackInstance::strongly_correlated(
      kSmallItems, 100, 0.5, kSmallSeed);
  bnb::KnapsackModel model(instance, cost);
  return bnb::BasicTree::record(model, 600000);
}

/// Table 1 / Figure 4 problem: 79,601 nodes at 3.47 s/node.
inline bnb::BasicTree large_problem() {
  bnb::RandomTreeConfig cfg;
  cfg.target_nodes = kLargeNodes;
  cfg.cost_mean = kLargeNodeCost;
  cfg.cost_cv = 0.25;
  cfg.seed = 20000509;
  cfg.depth_bias = 0.6;
  // Feasible values sit far above the bounds: the tree is traversed in
  // full, so "nodes expanded" equals the node count (the paper's random
  // trees are likewise "tested without eliminating the unpromising nodes").
  cfg.value_slack_mean = 1e7;
  return bnb::BasicTree::random(cfg);
}

/// Table-1-scale tree at Figure-3 granularity (0.01 s/node): the same
/// 79,601-node search, but with a dense event stream. Used by the kernel
/// throughput benchmark — at 3.47 s/node the events inside one conservative
/// lookahead window (1.5 ms, the network latency floor) are too sparse for
/// sharding to have anything to run in parallel; at 0.01 s/node a
/// 100-worker run dispatches tens of events per window.
inline bnb::BasicTree large_problem_dense() {
  bnb::RandomTreeConfig cfg;
  cfg.target_nodes = kLargeNodes;
  cfg.cost_mean = kSmallNodeCost;
  cfg.cost_cv = 0.25;
  cfg.seed = 20000509;
  cfg.depth_bias = 0.6;
  cfg.value_slack_mean = 1e7;
  return bnb::BasicTree::random(cfg);
}

/// Worker tuning for the small (10 ms granularity) problem.
inline core::WorkerConfig small_worker_config() {
  core::WorkerConfig w;
  w.report_batch = 8;
  w.report_flush_interval = 0.25;
  w.report_fanout = 2;
  w.table_gossip_interval = 1.0;
  w.work_request_timeout = 0.03;
  w.idle_backoff = 0.01;
  w.initial_stagger = 0.01;
  w.attempts_before_recovery = 3;
  return w;
}

/// Worker tuning for the large (3.47 s granularity) problem.
inline core::WorkerConfig large_worker_config() {
  core::WorkerConfig w;
  w.report_batch = 8;
  w.report_flush_interval = 5.0;
  w.report_fanout = 2;
  w.table_gossip_interval = 30.0;
  w.work_request_timeout = 7.0;  // > node cost, so busy peers can answer
  w.idle_backoff = 1.5;
  w.initial_stagger = 0.5;
  w.attempts_before_recovery = 3;
  return w;
}

/// Cluster configuration for large-problem runs.
inline sim::ClusterConfig large_cluster_config(std::uint32_t workers,
                                               std::uint64_t seed = 1) {
  sim::ClusterConfig cfg;
  cfg.workers = workers;
  cfg.worker = large_worker_config();
  cfg.seed = seed;
  cfg.time_limit = 3e5;
  cfg.storage_sample_interval = 60.0;
  return cfg;
}

/// Cluster configuration for small-problem runs.
inline sim::ClusterConfig small_cluster_config(std::uint32_t workers,
                                               std::uint64_t seed = 1) {
  sim::ClusterConfig cfg;
  cfg.workers = workers;
  cfg.worker = small_worker_config();
  cfg.seed = seed;
  cfg.time_limit = 3e4;
  cfg.storage_sample_interval = 1.0;
  return cfg;
}

}  // namespace ftbb::bench
