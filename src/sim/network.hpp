// Network model (paper Sections 4 and 6.2).
//
// Message latency follows the paper's linear cost model,
//     latency = latency_fixed + latency_per_byte * L      (1.5 + 0.005L ms),
// optionally with multiplicative jitter. The model implements the paper's
// minimal assumptions: messages can be lost (i.i.d. probability) and links
// can be partitioned for a time window; messages are never duplicated,
// corrupted, or spontaneously created, and delivery time is unbounded only
// through loss (a lost message never arrives).
//
// Hierarchical topology: the paper's motivating deployment is idle
// workstations scattered across LAN / campus / WAN tiers, so NetConfig can
// optionally carry a Topology that assigns every node a (rack, campus)
// coordinate and per-tier latency parameters; the (from, to) pair then
// selects the rack, campus, or WAN latency class. The default topology is
// flat (one latency class from the top-level NetConfig fields), which keeps
// every historical run — and every pinned golden fingerprint — bit-identical.
// The per-pair latency floor doubles as the sharded executor's per-channel
// lookahead (see make_executor_config below): co-located nodes share a
// shard, and cross-tier channels grant lookahead as large as their tier's
// floor instead of the single global minimum.
//
// Concurrency & determinism: all loss and jitter draws for messages leaving
// node n come from n's private stream, in n's deterministic send order, and
// all counters live in per-node channels written only by that node's shard
// (sends by the source, deliveries by the destination). The sharded and
// sequential executors therefore see identical drops, latencies, and
// stats — nothing depends on how sends from different nodes interleave.
// Delivery events are owned by the destination node, which is what routes
// them to the right shard.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/kernel.hpp"
#include "support/rng.hpp"

namespace ftbb::sim {

/// A time-windowed loss burst: during [t0, t1) matching messages are lost
/// with probability `prob`, independently of the base loss rate. A rule with
/// from/to = kAnyNode applies to every link; otherwise it matches one
/// directed link. Models correlated loss episodes (congested or flaky links)
/// on top of the paper's i.i.d. assumption.
struct LossRule {
  static constexpr std::int32_t kAnyNode = -1;
  double t0 = 0.0;
  double t1 = std::numeric_limits<double>::infinity();
  double prob = 0.0;
  std::int32_t from = kAnyNode;
  std::int32_t to = kAnyNode;
};

/// One latency class of the hierarchical topology: the same linear cost
/// model as the flat network, per tier.
struct TierLatency {
  double latency_fixed = 1.5e-3;   // seconds
  double latency_per_byte = 5e-6;  // seconds/byte
  double jitter_frac = 0.0;        // latency *= U(1-j, 1+j)
};

/// LAN/campus/WAN tier model. Nodes get implicit coordinates from their id:
/// rack_of(n) = n / nodes_per_rack and campus_of(n) = rack_of(n) /
/// racks_per_campus, so a contiguous id range is one rack and racks pack
/// into campuses. nodes_per_rack = 0 (the default) disables the hierarchy —
/// the network is a single flat latency class and nothing changes.
struct Topology {
  std::uint32_t nodes_per_rack = 0;   // 0 = flat (single latency class)
  std::uint32_t racks_per_campus = 4;
  TierLatency rack{100e-6, 2e-7, 0.0};    // same rack: switched LAN
  TierLatency campus{1.5e-3, 5e-6, 0.0};  // same campus: the paper's network
  TierLatency wan{30e-3, 1e-5, 0.0};      // cross-campus: wide area

  [[nodiscard]] bool hierarchical() const { return nodes_per_rack > 0; }
  [[nodiscard]] std::uint32_t rack_of(std::uint32_t node) const {
    return hierarchical() ? node / nodes_per_rack : 0;
  }
  [[nodiscard]] std::uint32_t campus_of(std::uint32_t node) const {
    return rack_of(node) / (racks_per_campus > 0 ? racks_per_campus : 1);
  }
};

struct NetConfig {
  double latency_fixed = 1.5e-3;    // seconds (paper: 1.5 ms)
  double latency_per_byte = 5e-6;   // seconds/byte (paper: 0.005 ms/B)
  double jitter_frac = 0.0;         // latency *= U(1-j, 1+j)
  double loss_prob = 0.0;           // i.i.d. message loss
  std::vector<LossRule> loss_rules; // additional windowed / per-link loss
  /// Optional LAN/campus/WAN hierarchy. When hierarchical() the per-tier
  /// parameters replace the flat latency fields above for every message
  /// (loss and partitions are unaffected — they stay per-link / per-window).
  Topology topology;
};

/// The latency class of the directed link (from, to): the flat top-level
/// parameters, or the tier the pair's coordinates select. The single place
/// every transport (simulated or wall-clock) derives link parameters from.
[[nodiscard]] inline TierLatency link_latency(const NetConfig& config,
                                              std::uint32_t from,
                                              std::uint32_t to) {
  const Topology& topo = config.topology;
  if (!topo.hierarchical()) {
    return TierLatency{config.latency_fixed, config.latency_per_byte,
                       config.jitter_frac};
  }
  if (topo.rack_of(from) == topo.rack_of(to)) return topo.rack;
  if (topo.campus_of(from) == topo.campus_of(to)) return topo.campus;
  return topo.wan;
}

/// A temporary partition: during [t0, t1) only endpoints in the same group
/// can communicate. Messages crossing groups are dropped (the harshest
/// reading of "temporary network partitions").
struct Partition {
  double t0 = 0.0;
  double t1 = 0.0;
  std::vector<int> group_of;  // group id per node
};

// Window-matching semantics of the fault model, shared by every transport
// that replays a FaultPlan (the simulated Network below evaluates them in
// virtual time; the rt runtime's in-process transport in wall time).

/// Combined loss probability for one transmission at time `t`: the base rate
/// and every matching active rule act as independent loss sources, so
/// survival probabilities multiply. Callers consume exactly one RNG draw per
/// at-risk message regardless of how many rules match, keeping runs
/// reproducible.
[[nodiscard]] inline double combined_loss_probability(const NetConfig& config,
                                                      std::uint32_t from,
                                                      std::uint32_t to, double t) {
  double survive = 1.0 - config.loss_prob;
  for (const LossRule& rule : config.loss_rules) {
    if (t < rule.t0 || t >= rule.t1) continue;
    if (rule.from != LossRule::kAnyNode &&
        rule.from != static_cast<std::int32_t>(from)) {
      continue;
    }
    if (rule.to != LossRule::kAnyNode &&
        rule.to != static_cast<std::int32_t>(to)) {
      continue;
    }
    survive *= 1.0 - rule.prob;
  }
  return 1.0 - survive;
}

/// True when some partition window active at `t` separates `from` and `to`.
[[nodiscard]] inline bool partition_blocks(const std::vector<Partition>& partitions,
                                           std::uint32_t from, std::uint32_t to,
                                           double t) {
  for (const Partition& p : partitions) {
    if (t < p.t0 || t >= p.t1) continue;
    if (from >= p.group_of.size() || to >= p.group_of.size()) continue;
    if (p.group_of[from] != p.group_of[to]) return true;
  }
  return false;
}

class Network {
 public:
  struct Stats {
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_delivered = 0;
    std::uint64_t messages_lost = 0;        // random loss
    std::uint64_t messages_partitioned = 0; // dropped at a partition
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_delivered = 0;
  };

  /// `nodes` bounds the node ids used with send(); each node gets a private
  /// draw stream split from `rng` and a private counter block.
  Network(Kernel* kernel, NetConfig config, support::Rng rng, std::uint32_t nodes)
      : kernel_(kernel), config_(std::move(config)) {
    channels_.reserve(nodes);
    for (std::uint32_t n = 0; n < nodes; ++n) {
      channels_.emplace_back(rng.split(n));
    }
  }

  /// The guaranteed minimum latency of one latency class (its fixed cost
  /// shrunk by the worst-case jitter draw).
  [[nodiscard]] static double tier_floor(const TierLatency& tier) {
    const double jitter = tier.jitter_frac > 0.0 ? tier.jitter_frac : 0.0;
    const double floor = tier.latency_fixed * (1.0 - jitter);
    return floor > 0.0 ? floor : 0.0;
  }

  /// The guaranteed minimum latency of any message under `config` — the
  /// conservative global lookahead a sharded executor may rely on. With a
  /// hierarchical topology this is the smallest tier floor (normally the
  /// rack tier); per-pair floors below are at least this large.
  [[nodiscard]] static double min_latency(const NetConfig& config) {
    const Topology& topo = config.topology;
    if (!topo.hierarchical()) {
      return tier_floor(TierLatency{config.latency_fixed,
                                    config.latency_per_byte,
                                    config.jitter_frac});
    }
    return std::min({tier_floor(topo.rack), tier_floor(topo.campus),
                     tier_floor(topo.wan)});
  }

  /// The guaranteed minimum latency on the directed link (from, to): the
  /// floor of the latency class the pair's coordinates select. Messages
  /// between distant nodes can never arrive sooner than this, which is what
  /// lets the sharded executor grant per-channel lookahead far beyond the
  /// global minimum.
  [[nodiscard]] static double min_latency(const NetConfig& config,
                                          std::uint32_t from, std::uint32_t to) {
    return tier_floor(link_latency(config, from, to));
  }

  void add_partition(Partition p) { partitions_.push_back(std::move(p)); }

  /// Appends one windowed loss rule after the rules already in the config.
  /// Valid before the run starts; lets a FaultDriver install a plan's rules
  /// through the same capability call on every backend.
  void add_loss_rule(LossRule rule) { config_.loss_rules.push_back(rule); }

  /// Transmits `bytes` departing at `departure` (>= kernel time; senders may
  /// be in the middle of a charged busy period); `deliver` runs at arrival —
  /// on the destination node's event stream — unless the message is lost.
  /// Returns false when dropped. Must be called from the sending node's own
  /// context (or from the control context while shards are quiescent).
  /// `deliver` is any void() callable; the scheduled event stores it by its
  /// own type inside the DeliverTask, so a delivery is one kernel Callback —
  /// inline for small closures, one pooled block for one that carries a
  /// core::Message — never a Callback nested in another.
  template <typename F>
  bool send(std::uint32_t from, std::uint32_t to, std::size_t bytes,
            double departure, F&& deliver) {
    using Task = DeliverTask<std::decay_t<F>>;
    static_assert(sizeof(Task) <= cbdetail::kBlockBytes,
                  "a delivery must fit the kernel's pooled callback block");
    FTBB_CHECK(from < channels_.size() && to < channels_.size());
    Channel& src = channels_[from];
    ++src.messages_sent;
    src.bytes_sent += bytes;
    if (blocked_by_partition(from, to, departure)) {
      ++src.messages_partitioned;
      return false;
    }
    const double p = loss_probability(from, to, departure);
    if (p > 0.0 && src.rng.chance(p)) {
      ++src.messages_lost;
      return false;
    }
    const TierLatency link = link_latency(config_, from, to);
    double latency =
        link.latency_fixed + link.latency_per_byte * static_cast<double>(bytes);
    if (link.jitter_frac > 0.0) {
      latency *= src.rng.uniform(1.0 - link.jitter_frac, 1.0 + link.jitter_frac);
    }
    src.bytes_delivered += bytes;
    kernel_->at(departure + latency, static_cast<OwnerId>(to),
                Task{this, to, std::forward<F>(deliver)});
    return true;
  }

  /// Aggregate counters over every node channel.
  [[nodiscard]] Stats stats() const {
    Stats total;
    for (const Channel& channel : channels_) {
      total.messages_sent += channel.messages_sent;
      total.messages_delivered += channel.messages_delivered;
      total.messages_lost += channel.messages_lost;
      total.messages_partitioned += channel.messages_partitioned;
      total.bytes_sent += channel.bytes_sent;
      total.bytes_delivered += channel.bytes_delivered;
    }
    return total;
  }

  [[nodiscard]] const NetConfig& config() const { return config_; }

 private:
  /// The scheduled arrival of a sent message: bumps the destination's
  /// delivery counter, then runs the caller's deliver closure, held by its
  /// own type. `network` stays valid: the kernel drains or is discarded
  /// before the Network in every backend.
  template <typename F>
  struct DeliverTask {
    Network* network;
    std::uint32_t to;
    F inner;
    void operator()() {
      ++network->channels_[to].messages_delivered;
      inner();
    }
  };

  /// Per-node channel: the draw stream and counters for traffic this node
  /// originates, plus the delivery counter for traffic it receives. Both
  /// sides are written only on the node's own shard (sends execute in the
  /// source's context, deliveries in the destination's), so there is exactly
  /// one writer per channel. Channels are packed (80 B, not padded to two
  /// lines): neighbours on different shards may share a line, which costs
  /// false sharing, never a race.
  struct Channel {
    explicit Channel(support::Rng r) : rng(r) {}
    support::Rng rng;
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_lost = 0;
    std::uint64_t messages_partitioned = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_delivered = 0;  // counted at send, like bytes_sent
    std::uint64_t messages_delivered = 0;
  };

  [[nodiscard]] double loss_probability(std::uint32_t from, std::uint32_t to,
                                        double t) const {
    return combined_loss_probability(config_, from, to, t);
  }

  [[nodiscard]] bool blocked_by_partition(std::uint32_t from, std::uint32_t to,
                                          double t) const {
    return partition_blocks(partitions_, from, to, t);
  }

  Kernel* kernel_;
  NetConfig config_;
  std::vector<Channel> channels_;
  std::vector<Partition> partitions_;
};

/// The one place every simulated backend (SimCluster, CentralSim, DibSim)
/// derives its kernel dispatch policy from a network config. Fills in:
///
///   * the global conservative lookahead (Network::min_latency) — backends
///     used to re-derive latency_fixed*(1-jitter_frac) by hand;
///   * with a hierarchical topology and more than one thread, a per-channel
///     lookahead model at rack granularity (group = rack, matrix of per-pair
///     tier floors) so the sharded executor can open windows bounded by each
///     *channel's* floor instead of the single global minimum;
///   * with them, a topology-aligned shard affinity so co-located nodes
///     share a shard and cross-shard traffic crosses the slow,
///     high-lookahead tiers.
///
/// `per_channel = false` keeps the classic single global-barrier lookahead
/// (used by benchmarks to measure what the refinement buys). Either setting
/// yields bit-identical results — only the dispatch parallelism changes.
[[nodiscard]] inline ExecutorConfig make_executor_config(const NetConfig& net,
                                                         std::uint32_t nodes,
                                                         std::uint32_t threads,
                                                         bool per_channel = true) {
  ExecutorConfig ex;
  ex.threads = threads;
  ex.nodes = nodes;
  ex.lookahead = Network::min_latency(net);
  // One dispatch thread means the sequential executor (make_executor), which
  // reads neither the channel matrix nor the shard map; at 10^5 workers the
  // matrix alone is 78 MB of rack pairs.
  const Topology& topo = net.topology;
  if (threads <= 1 || !per_channel || !topo.hierarchical() || nodes == 0) {
    return ex;
  }

  const std::uint32_t racks = topo.rack_of(nodes - 1) + 1;
  ex.channels.groups = racks;
  ex.channels.group_of.resize(nodes);
  for (std::uint32_t n = 0; n < nodes; ++n) {
    ex.channels.group_of[n] = topo.rack_of(n);
  }
  ex.channels.min_latency.assign(static_cast<std::size_t>(racks) * racks, 0.0);
  for (std::uint32_t a = 0; a < racks; ++a) {
    const std::uint32_t node_a = a * topo.nodes_per_rack;  // representative
    for (std::uint32_t b = 0; b < racks; ++b) {
      const std::uint32_t node_b = b * topo.nodes_per_rack;
      ex.channels.min_latency[static_cast<std::size_t>(a) * racks + b] =
          Network::min_latency(net, node_a, node_b);
    }
  }

  // Shard affinity: keep campuses whole when there are enough of them to
  // feed every thread (cross-shard traffic is then all WAN-tier), else keep
  // racks whole (cross-shard traffic is at least campus-tier). The executor
  // maps keys onto shards by modulo; any map is sound — the per-pair floors
  // above are what guarantee window safety — this one just maximizes how
  // much lookahead the cross-shard channels grant.
  const std::uint32_t campuses = topo.campus_of(nodes - 1) + 1;
  ex.shard_of.resize(nodes);
  for (std::uint32_t n = 0; n < nodes; ++n) {
    ex.shard_of[n] = (threads > 0 && campuses >= threads) ? topo.campus_of(n)
                                                          : topo.rack_of(n);
  }
  return ex;
}

}  // namespace ftbb::sim
