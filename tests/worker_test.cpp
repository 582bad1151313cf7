// Unit tests of the BnbWorker state machine against a scripted environment.
//
// These exercise protocol details end-to-end tests can't isolate: grant /
// deny decisions, report batching, request timeout bookkeeping, recovery
// by complement, and the termination broadcast.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "bnb/basic_tree.hpp"
#include "core/worker.hpp"

namespace ftbb::core {
namespace {

using bnb::BasicTree;
using bnb::RandomTreeConfig;
using bnb::TreeProblem;

class ScriptedEnv : public IWorkerEnv {
 public:
  struct TimerRec {
    TimerKind kind;
    double at;
    std::uint64_t gen;
    double delay = 0.0;  // as requested at arm time
    bool fired = false;
  };

  double clock = 0.0;
  std::vector<std::pair<NodeId, Message>> sent;
  std::vector<TimerRec> timers;
  std::vector<NodeId> peer_list;
  bool halted_notified = false;

  [[nodiscard]] double now() const override { return clock; }
  void send(NodeId to, Message msg) override { sent.emplace_back(to, std::move(msg)); }
  void set_timer(TimerKind kind, double delay, std::uint64_t gen) override {
    timers.push_back(TimerRec{kind, clock + delay, gen, delay, false});
  }
  void charge(CostKind, double seconds) override { clock += seconds; }
  support::Rng& rng() override { return rng_; }
  [[nodiscard]] const std::vector<NodeId>& peers() const override { return peer_list; }
  void set_wait_hint(WaitHint) override {}
  void notify_halted() override { halted_notified = true; }

  /// Fires the earliest pending timer (ties: creation order). Returns false
  /// when none remain.
  bool fire_next(BnbWorker& worker) {
    std::size_t best = timers.size();
    for (std::size_t i = 0; i < timers.size(); ++i) {
      if (timers[i].fired) continue;
      if (best == timers.size() || timers[i].at < timers[best].at) best = i;
    }
    if (best == timers.size()) return false;
    timers[best].fired = true;
    clock = std::max(clock, timers[best].at);
    worker.on_timer(timers[best].kind, timers[best].gen);
    return true;
  }

  /// Runs the worker on timers alone until it halts (or the step budget is
  /// spent). Only meaningful for solo runs (no peers answering).
  bool run_to_halt(BnbWorker& worker, int budget = 200000) {
    while (!worker.halted() && budget-- > 0) {
      if (!fire_next(worker)) return false;
    }
    return worker.halted();
  }

  [[nodiscard]] std::vector<const Message*> sent_of(MsgType type) const {
    std::vector<const Message*> out;
    for (const auto& [to, m] : sent) {
      if (m.type == type) out.push_back(&m);
    }
    return out;
  }

 private:
  support::Rng rng_{7};
};

struct Fixture {
  BasicTree tree;
  TreeProblem problem;
  ScriptedEnv env;
  WorkerConfig config;

  explicit Fixture(std::uint64_t seed, std::uint64_t nodes = 201)
      : tree(make_tree(seed, nodes)), problem(&tree) {
    config.report_batch = 3;
    config.report_flush_interval = 0.5;
    config.work_request_timeout = 0.1;
    config.idle_backoff = 0.05;
    config.initial_stagger = 0.01;
  }

  static BasicTree make_tree(std::uint64_t seed, std::uint64_t nodes) {
    RandomTreeConfig cfg;
    cfg.target_nodes = nodes;
    cfg.seed = seed;
    cfg.cost_mean = 1e-3;
    return BasicTree::random(cfg);
  }
};

TEST(Worker, SoloWithRootSolvesToTermination) {
  Fixture f(1);
  BnbWorker worker(0, &f.problem, &f.config, &f.env);
  worker.on_start(/*with_root=*/true);
  ASSERT_TRUE(f.env.run_to_halt(worker));
  EXPECT_TRUE(f.env.halted_notified);
  EXPECT_DOUBLE_EQ(worker.incumbent(), f.tree.optimal_value());
  EXPECT_TRUE(worker.table().root_complete());
  EXPECT_GE(worker.halted_at(), 0.0);
}

TEST(Worker, SoloWithoutRootRecoversTheRootFromAnEmptyTable) {
  // A member that never receives work and has no peers must complement its
  // empty table — yielding the root — and solve everything itself. This is
  // the "all but one resource lost" degenerate case.
  Fixture f(2);
  BnbWorker worker(0, &f.problem, &f.config, &f.env);
  worker.on_start(/*with_root=*/false);
  ASSERT_TRUE(f.env.run_to_halt(worker));
  EXPECT_DOUBLE_EQ(worker.incumbent(), f.tree.optimal_value());
  EXPECT_GE(worker.work()[WorkItem::kRecoveries], 1u);
}

TEST(Worker, BestCodeNamesAnOptimalLeaf) {
  Fixture f(3);
  BnbWorker worker(0, &f.problem, &f.config, &f.env);
  worker.on_start(true);
  ASSERT_TRUE(f.env.run_to_halt(worker));
  const bnb::NodeEval leaf = f.problem.eval(worker.best_code());
  EXPECT_TRUE(leaf.feasible_leaf);
  EXPECT_DOUBLE_EQ(leaf.value, worker.incumbent());
}

TEST(Worker, DeniesWorkRequestWhenPoolTooSmall) {
  Fixture f(4);
  f.env.peer_list = {1, 2};
  BnbWorker worker(0, &f.problem, &f.config, &f.env);
  worker.on_start(true);  // pool = {root} only
  Message req;
  req.type = MsgType::kWorkRequest;
  req.from = 1;
  req.request_id = 55;
  worker.on_message(req);
  const auto denies = f.env.sent_of(MsgType::kWorkDeny);
  ASSERT_EQ(denies.size(), 1u);
  EXPECT_EQ(denies[0]->request_id, 55u);
}

TEST(Worker, GrantsHalfThePoolOnRequest) {
  Fixture f(5);
  f.env.peer_list = {1, 2};
  BnbWorker worker(0, &f.problem, &f.config, &f.env);
  worker.on_start(true);
  // Expand a few nodes so the pool grows past the grant threshold.
  for (int i = 0; i < 8 && !worker.pool().empty(); ++i) f.env.fire_next(worker);
  ASSERT_GE(worker.pool().size(), 2u);
  const std::size_t before = worker.pool().size();
  Message req;
  req.type = MsgType::kWorkRequest;
  req.from = 2;
  req.request_id = 9;
  worker.on_message(req);
  const auto grants = f.env.sent_of(MsgType::kWorkGrant);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0]->request_id, 9u);
  EXPECT_EQ(grants[0]->problems.size(), before / 2);
  EXPECT_EQ(worker.pool().size(), before - before / 2);
}

TEST(Worker, ReportsBatchAndCarryIncumbent) {
  Fixture f(6);
  f.env.peer_list = {1, 2, 3};
  Fixture* fp = &f;
  fp->config.report_fanout = 2;
  BnbWorker worker(0, &f.problem, &f.config, &f.env);
  worker.on_start(true);
  // Run enough steps to accumulate report_batch completions.
  for (int i = 0; i < 2000 && f.env.sent_of(MsgType::kWorkReport).empty(); ++i) {
    if (!f.env.fire_next(worker)) break;
  }
  const auto reports = f.env.sent_of(MsgType::kWorkReport);
  ASSERT_GE(reports.size(), 2u);  // one report to each of fanout=2 peers
  EXPECT_FALSE(reports[0]->codes.empty());
  // Distinct recipients for one logical report.
  NodeId to0 = 0;
  NodeId to1 = 0;
  int found = 0;
  for (const auto& [to, m] : f.env.sent) {
    if (m.type == MsgType::kWorkReport && found < 2) {
      (found == 0 ? to0 : to1) = to;
      ++found;
    }
  }
  EXPECT_NE(to0, to1);
}

TEST(Worker, ReceivedReportCoversPoolEntries) {
  Fixture f(7);
  f.env.peer_list = {1};
  BnbWorker worker(0, &f.problem, &f.config, &f.env);
  worker.on_start(true);
  for (int i = 0; i < 6 && !worker.pool().empty(); ++i) f.env.fire_next(worker);
  ASSERT_GE(worker.pool().size(), 1u);
  // Claim one pooled subproblem completed via a work report. snapshot() is
  // order-canonical (sorted by code), so this cannot couple to pool
  // internals.
  const PathCode victim = worker.pool().snapshot().front().code;
  Message report;
  report.type = MsgType::kWorkReport;
  report.from = 1;
  report.codes = {victim};
  const std::size_t before = worker.pool().size();
  worker.on_message(report);
  EXPECT_EQ(worker.pool().size(), before - 1);
  EXPECT_TRUE(worker.table().covered(victim));
}

TEST(Worker, RootReportTerminatesAndRebroadcasts) {
  Fixture f(8);
  f.env.peer_list = {1, 2, 3};
  BnbWorker worker(0, &f.problem, &f.config, &f.env);
  worker.on_start(true);
  Message root_report;
  root_report.type = MsgType::kRootReport;
  root_report.from = 2;
  root_report.best_known = 42.0;
  root_report.codes = {PathCode::root()};
  worker.on_message(root_report);
  EXPECT_TRUE(worker.halted());
  EXPECT_TRUE(f.env.halted_notified);
  // Section 5.4: the detector sends the root code to all known members.
  EXPECT_EQ(f.env.sent_of(MsgType::kRootReport).size(), 3u);
}

TEST(Worker, IncumbentAbsorbedAndPruned) {
  Fixture f(9);
  f.env.peer_list = {1};
  BnbWorker worker(0, &f.problem, &f.config, &f.env);
  worker.on_start(true);
  for (int i = 0; i < 10 && !worker.pool().empty(); ++i) f.env.fire_next(worker);
  ASSERT_GE(worker.pool().size(), 1u);
  // An incumbent below every bound wipes the pool (everything eliminated).
  Message deny;
  deny.type = MsgType::kWorkDeny;
  deny.from = 1;
  deny.best_known = -1e30;
  worker.on_message(deny);
  EXPECT_DOUBLE_EQ(worker.incumbent(), -1e30);
  EXPECT_TRUE(worker.pool().empty());
  EXPECT_GT(worker.work()[WorkItem::kEliminated], 0u);
}

TEST(Worker, RequestTimeoutsEscalateToRecovery) {
  Fixture f(10);
  f.env.peer_list = {1};  // a peer that never answers (crashed)
  Fixture* fp = &f;
  fp->config.attempts_before_recovery = 2;
  BnbWorker worker(0, &f.problem, &f.config, &f.env);
  worker.on_start(/*with_root=*/false);
  // Recovery requires repeated timeouts AND a progress stall; with an empty
  // table the stall threshold is further multiplied (a wrong suspicion would
  // duplicate the whole root problem). Keep firing timers until the worker
  // gives up on load balancing and complements.
  for (int i = 0; i < 2000 && worker.work()[WorkItem::kRecoveries] == 0; ++i) {
    ASSERT_TRUE(f.env.fire_next(worker));
  }
  EXPECT_GE(worker.work()[WorkItem::kWorkRequestsSent], 2u);
  EXPECT_GE(worker.work()[WorkItem::kRequestTimeouts], 2u);
  EXPECT_GE(worker.work()[WorkItem::kRecoveries], 1u);
  EXPECT_FALSE(worker.pool().empty());  // recovered the root region
  // The stall gate held recovery back until the silence threshold.
  EXPECT_GE(f.env.clock,
            f.config.stall_recovery_factor * f.config.work_request_timeout);
}

TEST(Worker, StaleGrantIsStillAbsorbed) {
  Fixture f(11);
  f.env.peer_list = {1};
  BnbWorker worker(0, &f.problem, &f.config, &f.env);
  worker.on_start(false);
  Message grant;
  grant.type = MsgType::kWorkGrant;
  grant.from = 1;
  grant.request_id = 999;  // matches no outstanding request
  grant.problems.push_back(bnb::Subproblem{
      PathCode::root().child(f.tree.root().var, false),
      f.tree.node(static_cast<std::size_t>(f.tree.root().child[0])).bound});
  worker.on_message(grant);
  EXPECT_EQ(worker.pool().size(), 1u);
}

TEST(Worker, GrantOfCoveredProblemIsDropped) {
  Fixture f(12);
  f.env.peer_list = {1};
  BnbWorker worker(0, &f.problem, &f.config, &f.env);
  worker.on_start(false);
  const PathCode left = PathCode::root().child(f.tree.root().var, false);
  Message report;
  report.type = MsgType::kWorkReport;
  report.from = 1;
  report.codes = {left};
  worker.on_message(report);
  Message grant;
  grant.type = MsgType::kWorkGrant;
  grant.from = 1;
  grant.problems.push_back(bnb::Subproblem{left, 0.0});
  worker.on_message(grant);
  EXPECT_TRUE(worker.pool().empty());
  EXPECT_GT(worker.work()[WorkItem::kCoveredSkips], 0u);
}

TEST(Worker, PaperLiteralReportCompressionAlsoWorks) {
  Fixture f(13);
  Fixture* fp = &f;
  fp->config.compress_against_table = false;  // contract the list only
  BnbWorker worker(0, &f.problem, &f.config, &f.env);
  worker.on_start(true);
  ASSERT_TRUE(f.env.run_to_halt(worker));
  EXPECT_DOUBLE_EQ(worker.incumbent(), f.tree.optimal_value());
}

TEST(Worker, EliminationDisabledStillTerminates) {
  Fixture f(14, 101);
  Fixture* fp = &f;
  fp->config.enable_elimination = false;
  BnbWorker worker(0, &f.problem, &f.config, &f.env);
  worker.on_start(true);
  ASSERT_TRUE(f.env.run_to_halt(worker));
  // Exhaustive traversal: every node expanded exactly once.
  EXPECT_EQ(worker.work()[WorkItem::kExpansions], f.tree.size());
  EXPECT_DOUBLE_EQ(worker.incumbent(), f.tree.optimal_value());
}

TEST(Worker, RecoveryPoliciesAllSolveSolo) {
  for (const RecoveryPolicy policy :
       {RecoveryPolicy::kRandom, RecoveryPolicy::kDeepest,
        RecoveryPolicy::kShallowest, RecoveryPolicy::kNearLastLocal}) {
    Fixture f(15, 101);
    Fixture* fp = &f;
    fp->config.recovery = policy;
    BnbWorker worker(0, &f.problem, &f.config, &f.env);
    worker.on_start(false);
    ASSERT_TRUE(f.env.run_to_halt(worker)) << to_string(policy);
    EXPECT_DOUBLE_EQ(worker.incumbent(), f.tree.optimal_value()) << to_string(policy);
  }
}


TEST(Worker, AdaptiveTimeoutStretchesWithObservedNodeCost) {
  // The cost-model controller (Section 7 future work) raises the request
  // timeout to base + timeout_safety * EWMA(node cost): after expanding
  // coarse nodes, the worker must arm request-timeout timers far beyond the
  // configured base.
  RandomTreeConfig tree_cfg;
  tree_cfg.target_nodes = 31;
  tree_cfg.seed = 16;
  tree_cfg.cost_mean = 0.5;  // coarse nodes
  tree_cfg.cost_cv = 0.1;
  const BasicTree tree = BasicTree::random(tree_cfg);
  TreeProblem problem(&tree, /*honor_bounds=*/false);

  for (const bool adaptive : {false, true}) {
    ScriptedEnv env;
    env.peer_list = {1};
    WorkerConfig config;
    config.work_request_timeout = 0.02;  // base, far below node cost
    config.model_adaptivity = adaptive;
    BnbWorker worker(0, &problem, &config, &env);
    worker.on_start(/*with_root=*/false);
    // Hand it a single subtree; once finished it must seek work again.
    const bnb::TreeNode& root = tree.root();
    Message grant;
    grant.type = MsgType::kWorkGrant;
    grant.from = 1;
    grant.problems.push_back(bnb::Subproblem{
        PathCode::root().child(root.var, false),
        tree.node(static_cast<std::size_t>(root.child[0])).bound});
    worker.on_message(grant);
    double last_request_delay = -1.0;
    for (int i = 0; i < 500; ++i) {
      if (!env.fire_next(worker)) break;
      for (const auto& t : env.timers) {
        if (t.kind == TimerKind::kRequestTimeout) last_request_delay = t.delay;
      }
      if (last_request_delay > 0.0 && worker.work()[WorkItem::kExpansions] > 5) break;
    }
    ASSERT_GT(worker.work()[WorkItem::kExpansions], 5u);
    ASSERT_GT(last_request_delay, 0.0);
    if (adaptive) {
      // ~0.02 + 2.0 * 0.5s, modulo the EWMA's spread.
      EXPECT_GT(last_request_delay, 0.5);
    } else {
      EXPECT_DOUBLE_EQ(last_request_delay, 0.02);
    }
  }
}


}  // namespace
}  // namespace ftbb::core
