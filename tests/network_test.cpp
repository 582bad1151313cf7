#include <gtest/gtest.h>

#include "core/messages.hpp"
#include "sim/callback.hpp"
#include "sim/network.hpp"

namespace ftbb::sim {
namespace {

TEST(Network, LatencyFollowsLinearModel) {
  // Paper model: 1.5 + 0.005 * L ms.
  Kernel k;
  NetConfig cfg;
  cfg.latency_fixed = 1.5e-3;
  cfg.latency_per_byte = 5e-6;
  Network net(&k, cfg, support::Rng(1), 4);
  double arrival = -1.0;
  net.send(0, 1, 100, 0.0, [&] { arrival = k.now(); });
  k.run();
  EXPECT_NEAR(arrival, 1.5e-3 + 100 * 5e-6, 1e-12);
}

TEST(Network, DepartureTimeShiftsArrival) {
  Kernel k;
  Network net(&k, NetConfig{}, support::Rng(1), 4);
  k.at(2.0, [&] {
    net.send(0, 1, 0, 3.5, [] {});  // sender was busy until 3.5
  });
  double arrival = -1.0;
  k.at(0.0, [&] {});
  // Re-send with a capture we can observe.
  Kernel k2;
  Network net2(&k2, NetConfig{}, support::Rng(1), 4);
  net2.send(0, 1, 0, 3.5, [&] { arrival = k2.now(); });
  k2.run();
  EXPECT_NEAR(arrival, 3.5 + 1.5e-3, 1e-12);
}

TEST(Network, JitterBoundsLatency) {
  Kernel k;
  NetConfig cfg;
  cfg.jitter_frac = 0.5;
  Network net(&k, cfg, support::Rng(7), 4);
  std::vector<double> arrivals;
  for (int i = 0; i < 200; ++i) {
    net.send(0, 1, 0, 0.0, [&] { arrivals.push_back(k.now()); });
  }
  k.run();
  ASSERT_EQ(arrivals.size(), 200u);
  for (const double a : arrivals) {
    EXPECT_GE(a, cfg.latency_fixed * 0.5 - 1e-12);
    EXPECT_LE(a, cfg.latency_fixed * 1.5 + 1e-12);
  }
}

TEST(Network, LossProbabilityOneDropsEverything) {
  Kernel k;
  NetConfig cfg;
  cfg.loss_prob = 1.0;
  Network net(&k, cfg, support::Rng(5), 4);
  int delivered = 0;
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(net.send(0, 1, 10, 0.0, [&] { ++delivered; }));
  }
  k.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.stats().messages_lost, 50u);
  EXPECT_EQ(net.stats().messages_delivered, 0u);
}

TEST(Network, LossRateIsApproximatelyHonored) {
  Kernel k;
  NetConfig cfg;
  cfg.loss_prob = 0.25;
  Network net(&k, cfg, support::Rng(11), 4);
  int delivered = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) net.send(0, 1, 1, 0.0, [&] { ++delivered; });
  k.run();
  EXPECT_NEAR(static_cast<double>(delivered) / n, 0.75, 0.02);
}

TEST(Network, PartitionBlocksCrossGroupOnly) {
  Kernel k;
  Network net(&k, NetConfig{}, support::Rng(1), 4);
  net.add_partition(Partition{1.0, 2.0, {0, 0, 1}});  // nodes 0,1 vs node 2
  int delivered = 0;
  // During the window: 0->1 passes, 0->2 blocked.
  EXPECT_TRUE(net.send(0, 1, 0, 1.5, [&] { ++delivered; }));
  EXPECT_FALSE(net.send(0, 2, 0, 1.5, [&] { ++delivered; }));
  // Outside the window both pass.
  EXPECT_TRUE(net.send(0, 2, 0, 2.5, [&] { ++delivered; }));
  EXPECT_TRUE(net.send(0, 2, 0, 0.5, [&] { ++delivered; }));
  k.run();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(net.stats().messages_partitioned, 1u);
}

TEST(Network, LossRuleAppliesOnlyInsideItsWindow) {
  Kernel k;
  NetConfig cfg;
  cfg.loss_rules.push_back(LossRule{1.0, 2.0, 1.0});  // everything, 100%
  Network net(&k, cfg, support::Rng(3), 4);
  int delivered = 0;
  EXPECT_TRUE(net.send(0, 1, 0, 0.5, [&] { ++delivered; }));   // before
  EXPECT_FALSE(net.send(0, 1, 0, 1.5, [&] { ++delivered; }));  // inside
  EXPECT_TRUE(net.send(0, 1, 0, 2.5, [&] { ++delivered; }));   // after
  k.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.stats().messages_lost, 1u);
}

TEST(Network, PerLinkLossRuleSparesOtherLinks) {
  Kernel k;
  NetConfig cfg;
  cfg.loss_rules.push_back(LossRule{0.0, 10.0, 1.0, /*from=*/0, /*to=*/1});
  Network net(&k, cfg, support::Rng(3), 4);
  int delivered = 0;
  EXPECT_FALSE(net.send(0, 1, 0, 1.0, [&] { ++delivered; }));  // the bad link
  EXPECT_TRUE(net.send(1, 0, 0, 1.0, [&] { ++delivered; }));   // reverse is fine
  EXPECT_TRUE(net.send(0, 2, 0, 1.0, [&] { ++delivered; }));   // other target
  k.run();
  EXPECT_EQ(delivered, 2);
}

TEST(Network, OverlappingLossSourcesCombineIndependently) {
  Kernel k;
  NetConfig cfg;
  cfg.loss_prob = 0.5;
  cfg.loss_rules.push_back(LossRule{0.0, 10.0, 0.5});
  Network net(&k, cfg, support::Rng(17), 4);
  int delivered = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) net.send(0, 1, 1, 1.0, [&] { ++delivered; });
  k.run();
  // Survival = (1-0.5)*(1-0.5) = 0.25.
  EXPECT_NEAR(static_cast<double>(delivered) / n, 0.25, 0.02);
}

// ---------------------------------------------------------------------------
// Hierarchical topology: tier selection, floors, and the per-pair lookahead
// helper the sharded executor derives its channel windows from.
// ---------------------------------------------------------------------------

NetConfig hierarchical_config() {
  NetConfig cfg;
  cfg.topology.nodes_per_rack = 4;
  cfg.topology.racks_per_campus = 2;
  return cfg;  // default tiers: rack 100us, campus 1.5ms, WAN 30ms
}

TEST(Network, HierarchicalTiersOrderPairFloors) {
  const NetConfig cfg = hierarchical_config();
  // Nodes 0-3 share rack 0; 0-7 share campus 0; node 8 is another campus.
  const double rack = Network::min_latency(cfg, 0, 1);
  const double campus = Network::min_latency(cfg, 0, 4);
  const double wan = Network::min_latency(cfg, 0, 8);
  EXPECT_LT(rack, campus);
  EXPECT_LT(campus, wan);
  EXPECT_NEAR(rack, 100e-6, 1e-12);
  EXPECT_NEAR(campus, 1.5e-3, 1e-12);
  EXPECT_NEAR(wan, 30e-3, 1e-12);
  // The global conservative lookahead is the smallest pair floor, and every
  // pair floor dominates it (symmetrically — coordinates are undirected).
  EXPECT_DOUBLE_EQ(Network::min_latency(cfg), rack);
  for (std::uint32_t a = 0; a < 12; ++a) {
    for (std::uint32_t b = 0; b < 12; ++b) {
      EXPECT_GE(Network::min_latency(cfg, a, b), Network::min_latency(cfg));
      EXPECT_DOUBLE_EQ(Network::min_latency(cfg, a, b),
                       Network::min_latency(cfg, b, a));
    }
  }
}

TEST(Network, TierSelectionDeliversAtTierModel) {
  const NetConfig cfg = hierarchical_config();
  Kernel k;
  Network net(&k, cfg, support::Rng(1), 12);
  double rack_arrival = -1.0;
  double campus_arrival = -1.0;
  double wan_arrival = -1.0;
  net.send(0, 3, 100, 0.0, [&] { rack_arrival = k.now(); });
  net.send(0, 5, 100, 0.0, [&] { campus_arrival = k.now(); });
  net.send(0, 9, 100, 0.0, [&] { wan_arrival = k.now(); });
  k.run();
  EXPECT_NEAR(rack_arrival, 100e-6 + 100 * 2e-7, 1e-12);
  EXPECT_NEAR(campus_arrival, 1.5e-3 + 100 * 5e-6, 1e-12);
  EXPECT_NEAR(wan_arrival, 30e-3 + 100 * 1e-5, 1e-12);
}

TEST(Network, TierJitterShrinksTheFloorAndBoundsArrivals) {
  NetConfig cfg = hierarchical_config();
  cfg.topology.rack.jitter_frac = 0.5;
  // The guaranteed floor is the worst-case jitter draw...
  EXPECT_NEAR(Network::min_latency(cfg, 0, 1), 100e-6 * 0.5, 1e-12);
  // ...and campus/WAN pairs (no jitter configured) keep their full floors.
  EXPECT_NEAR(Network::min_latency(cfg, 0, 4), 1.5e-3, 1e-12);
  Kernel k;
  Network net(&k, cfg, support::Rng(17), 8);
  std::vector<double> arrivals;
  for (int i = 0; i < 200; ++i) {
    net.send(0, 1, 0, 0.0, [&] { arrivals.push_back(k.now()); });
  }
  k.run();
  ASSERT_EQ(arrivals.size(), 200u);
  for (const double a : arrivals) {
    EXPECT_GE(a, 100e-6 * 0.5 - 1e-12);
    EXPECT_LE(a, 100e-6 * 1.5 + 1e-12);
  }
}

TEST(Network, FlatDefaultIsASinglePairClass) {
  const NetConfig flat;  // nodes_per_rack = 0: the historical network
  EXPECT_FALSE(flat.topology.hierarchical());
  for (std::uint32_t a = 0; a < 6; ++a) {
    for (std::uint32_t b = 0; b < 6; ++b) {
      EXPECT_DOUBLE_EQ(Network::min_latency(flat, a, b),
                       Network::min_latency(flat));
    }
  }
  EXPECT_NEAR(Network::min_latency(flat), 1.5e-3, 1e-12);
}

TEST(Network, StatsCountBytes) {
  Kernel k;
  Network net(&k, NetConfig{}, support::Rng(1), 4);
  net.send(0, 1, 100, 0.0, [] {});
  net.send(1, 0, 50, 0.0, [] {});
  k.run();
  EXPECT_EQ(net.stats().messages_sent, 2u);
  EXPECT_EQ(net.stats().bytes_sent, 150u);
  EXPECT_EQ(net.stats().bytes_delivered, 150u);
  EXPECT_EQ(net.stats().messages_delivered, 2u);
}

TEST(Network, MessageDeliveryTakesOnePooledBlock) {
  // A delivery shaped like the cluster's (destination, its epoch, the frame
  // size and the Message itself) is too big for the inline buffer, so the
  // kernel stores it in one pooled block: the DeliverTask holds the closure
  // by its own type, not a Callback that would spill into a second block.
  Kernel k;
  Network net(&k, NetConfig{}, support::Rng(3), 4);
  const cbdetail::BlockPool& pool = cbdetail::block_pool();
  const std::uint64_t blocks_before = pool.fresh + pool.hits;
  constexpr std::uint64_t kMessages = 100;
  std::uint64_t delivered = 0;
  std::uint64_t ids = 0;
  for (std::uint64_t i = 0; i < kMessages; ++i) {
    core::Message msg;
    msg.type = core::MsgType::kWorkRequest;
    msg.from = 0;
    msg.request_id = i + 1;
    ASSERT_TRUE(net.send(0, 1, 24, 0.0,
                         [sink = &delivered, epoch = std::uint64_t{0},
                          bytes = std::size_t{24}, ids = &ids,
                          msg = std::move(msg)]() mutable {
                           *ids += msg.request_id + epoch + bytes;
                           ++*sink;
                         }));
  }
  EXPECT_EQ(pool.fresh + pool.hits - blocks_before, kMessages);
  k.run();
  EXPECT_EQ(delivered, kMessages);
  EXPECT_EQ(ids, kMessages * (kMessages + 1) / 2 + 24 * kMessages);
}

}  // namespace
}  // namespace ftbb::sim
