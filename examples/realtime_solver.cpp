// Real-time distributed solve on the thread-backed runtime.
//
// The identical worker protocol that the simulator hosts in virtual time
// runs here on real threads with real message queues (the MPI-on-one-box
// equivalent), solving a minimum-vertex-cover instance while two workers
// are killed mid-run.
#include <cstdio>
#include <cstdlib>

#include "bnb/vertex_cover.hpp"
#include "rt/runtime.hpp"

int main(int argc, char** argv) {
  using namespace ftbb;
  const std::uint32_t workers = argc > 1 ? std::atoi(argv[1]) : 6;

  // A G(n, p) graph; vertex cover branches on vertices, excluding a vertex
  // forces its neighbors into the cover.
  const bnb::Graph graph = bnb::Graph::gnp(26, 0.25, 11);
  bnb::NodeCostModel cost;
  cost.mean = 5e-3;  // ~5 ms per node: long enough that the faults land
                     // mid-search, short enough to stay a demo
  bnb::VertexCoverModel model(graph, cost);

  rt::RtConfig cfg;
  cfg.workers = workers;
  cfg.seed = 11;
  cfg.wall_timeout = 60.0;
  cfg.net.latency_fixed = 0.0005;
  cfg.net.latency_per_byte = 0.0;
  cfg.net.loss_prob = 0.02;  // a slightly lossy "network"
  cfg.worker.report_batch = 4;
  cfg.worker.report_flush_interval = 0.02;
  cfg.worker.table_gossip_interval = 0.05;
  cfg.worker.work_request_timeout = 0.01;
  cfg.worker.idle_backoff = 0.004;
  // One worker dies for good shortly after start; another bounces — its
  // fresh incarnation re-enters through the normal load-balancing path.
  cfg.faults.crashes = {{1, 0.02}, {2, 0.04}};
  cfg.faults.revives = {{2, 0.12}};

  std::printf("solving vertex cover on %u threads (2 crash, 1 rejoins)...\n",
              workers);
  const rt::RtResult res = rt::Cluster::run(model, cfg);

  std::printf("terminated    : %s in %.2fs wall\n",
              res.all_live_halted ? "yes" : "NO", res.makespan);
  std::printf("cover size    : %.0f", res.solution);
  if (model.known_optimal().has_value()) {
    std::printf(" (optimum %.0f, %s)", *model.known_optimal(),
                res.solution == *model.known_optimal() ? "match" : "MISMATCH");
  }
  std::printf("\nmessages      : %llu delivered, %llu lost\n",
              static_cast<unsigned long long>(res.net.messages_delivered),
              static_cast<unsigned long long>(res.net.messages_lost));
  std::printf("incarnations  : %llu spawned, %u reaped, %llu nodes re-expanded\n",
              static_cast<unsigned long long>(res.work[core::WorkItem::kIncarnations]),
              res.reaped, static_cast<unsigned long long>(res.redundant_expansions));
  for (std::size_t i = 0; i < res.worker_ledgers.size(); ++i) {
    const core::WorkLedger& w = res.worker_ledgers[i];
    std::printf("worker %zu      : expanded=%llu recoveries=%llu%s\n", i,
                static_cast<unsigned long long>(w[core::WorkItem::kExpansions]),
                static_cast<unsigned long long>(w[core::WorkItem::kRecoveries]),
                res.crashed[i] ? " [crashed]" : "");
  }
  return res.all_live_halted ? 0 : 1;
}
