// Cluster-level tests of the wire frames: every report batch after a
// worker's first chains to the one before, the network charges exactly the
// frame bytes, and a revived worker restarts its delta stream from a
// self-contained report instead of chaining to a dead incarnation's base.
#include <gtest/gtest.h>

#include "bnb/basic_tree.hpp"
#include "rt/runtime.hpp"
#include "sim/cluster.hpp"

namespace ftbb::sim {
namespace {

using bnb::BasicTree;
using bnb::RandomTreeConfig;
using bnb::TreeProblem;

core::WorkerConfig fast_worker_config() {
  core::WorkerConfig w;
  w.report_batch = 4;
  w.report_flush_interval = 0.05;
  w.report_fanout = 2;
  w.table_gossip_interval = 0.2;
  w.work_request_timeout = 0.02;
  w.idle_backoff = 0.005;
  w.initial_stagger = 0.002;
  w.attempts_before_recovery = 3;
  return w;
}

BasicTree test_tree(std::uint64_t seed, std::uint64_t nodes = 1001) {
  RandomTreeConfig cfg;
  cfg.target_nodes = nodes;
  cfg.seed = seed;
  cfg.cost_mean = 2e-3;
  cfg.feasible_leaf_fraction = 0.3;
  return BasicTree::random(cfg);
}

ClusterConfig base_config(std::uint32_t workers, std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.workers = workers;
  cfg.worker = fast_worker_config();
  cfg.seed = seed;
  cfg.time_limit = 300.0;
  return cfg;
}

TEST(Wire, V1ShrinksReportTraffic) {
  // Exhaustive walk with full batches — the E6 load regime where delta
  // coding pays. (The name predates the single encoding: delta chains are
  // the only code-list format now, so the saving against flat codes is
  // pinned at the frame level by Frames.DeltaChainsExpandPastTheirInputBytes.)
  // Here: past each worker's first batch, every report chains to the batch
  // before it, and the network charges exactly the frame bytes.
  const BasicTree tree = test_tree(13, 4001);
  TreeProblem problem(&tree, /*honor_bounds=*/false);
  ClusterConfig cfg = base_config(4, 13);
  cfg.worker.report_batch = 16;
  cfg.worker.report_flush_interval = 5.0;
  cfg.worker.compress_against_table = true;
  const ClusterResult res = SimCluster::run(problem, cfg);
  ASSERT_TRUE(res.all_live_halted);
  EXPECT_GT(res.wire.report_frames, 0u);
  EXPECT_EQ(res.wire.self_contained_reports + res.wire.delta_reports,
            res.wire.report_frames);
  // One stream per worker, each opened by one batch fanned out to m = 2.
  EXPECT_LE(res.wire.self_contained_reports, 4u * cfg.worker.report_fanout);
  EXPECT_GT(res.wire.delta_reports, 10 * res.wire.self_contained_reports);
  EXPECT_LT(res.wire.delta_report_bytes, res.wire.report_frame_bytes);
  EXPECT_EQ(res.wire.frame_bytes, res.net.bytes_sent);
}

TEST(Wire, RevivedWorkerRestartsItsDeltaStream) {
  // Crash worker 1 mid-report-stream, revive it, and require the revived
  // incarnation to open a *second* delta stream: its first post-revive
  // report must be self-contained (wire sequence 0), never chained to the
  // dead incarnation's last batch.
  const BasicTree tree = test_tree(14, 8001);
  TreeProblem problem(&tree, /*honor_bounds=*/false);
  ClusterConfig cfg = base_config(4, 14);
  const ClusterResult baseline = SimCluster::run(problem, cfg);
  ASSERT_TRUE(baseline.all_live_halted);

  // Crash after the first reports have flushed, revive with plenty of the
  // exhaustive walk left so the fresh incarnation reacquires work and
  // reports again.
  cfg.crashes = {{1, baseline.makespan * 0.25}};
  cfg.rejoins = {{1, baseline.makespan * 0.35}};
  const ClusterResult res = SimCluster::run(problem, cfg);
  ASSERT_TRUE(res.all_live_halted);
  ASSERT_TRUE(res.solution_found);
  EXPECT_DOUBLE_EQ(res.solution, tree.optimal_value());

  ASSERT_EQ(res.report_streams_per_worker.size(), 4u);
  // Both incarnations of worker 1 reported: two streams opened.
  EXPECT_EQ(res.report_streams_per_worker[1], 2u);
  for (const core::NodeId node : {0u, 2u, 3u}) {
    EXPECT_EQ(res.report_streams_per_worker[node], 1u);
  }
  // Every opened stream leads with a self-contained report (fanned out to
  // >= 1 peer), and steady-state batches are deltas.
  std::uint32_t streams = 0;
  for (const std::uint32_t s : res.report_streams_per_worker) streams += s;
  EXPECT_GE(res.wire.self_contained_reports, streams);
  EXPECT_GT(res.wire.delta_reports, 0u);
}

TEST(Wire, RtRevivedWorkerRestartsItsDeltaStream) {
  // Same property on the thread-backed runtime, where frames are actually
  // encoded and decoded on delivery: a bounced worker's fresh
  // incarnation restarts the chain, and no frame ever fails to decode.
  RandomTreeConfig tree_cfg;
  tree_cfg.target_nodes = 4001;
  tree_cfg.seed = 8;
  tree_cfg.cost_mean = 1e-4;
  const BasicTree tree = BasicTree::random(tree_cfg);
  TreeProblem problem(&tree);

  rt::RtConfig cfg;
  cfg.workers = 4;
  cfg.seed = 8;
  cfg.wall_timeout = 90.0;
  cfg.worker.report_batch = 4;
  cfg.worker.report_flush_interval = 0.02;
  cfg.worker.table_gossip_interval = 0.05;
  cfg.worker.work_request_timeout = 0.01;
  cfg.worker.idle_backoff = 0.004;
  cfg.worker.initial_stagger = 0.002;
  cfg.faults.crashes = {{1, 0.02}};
  cfg.faults.revives = {{1, 0.12}};

  const rt::RtResult res = rt::Cluster::run(problem, cfg);
  EXPECT_FALSE(res.hit_time_limit);
  ASSERT_TRUE(res.all_live_halted);
  EXPECT_DOUBLE_EQ(res.solution, tree.optimal_value());
  EXPECT_EQ(res.decode_errors, 0u);
  ASSERT_EQ(res.report_streams_per_worker.size(), 4u);
  ASSERT_EQ(res.incarnations_per_worker.size(), 4u);
  EXPECT_GE(res.incarnations_per_worker[1], 2u);
  for (std::size_t node = 0; node < 4; ++node) {
    // A stream needs an incarnation; timing decides whether every
    // incarnation got far enough to report, so only the bound is exact.
    EXPECT_LE(res.report_streams_per_worker[node],
              res.incarnations_per_worker[node]);
  }
  // Somebody reported, and every frame decoded.
  std::uint32_t streams = 0;
  for (const std::uint32_t s : res.report_streams_per_worker) streams += s;
  EXPECT_GT(streams, 0u);
}

}  // namespace
}  // namespace ftbb::sim
