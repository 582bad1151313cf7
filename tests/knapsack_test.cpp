#include <gtest/gtest.h>

#include <map>
#include <set>

#include "bnb/basic_tree.hpp"
#include "bnb/knapsack.hpp"
#include "bnb/sequential.hpp"
#include "sim/cluster.hpp"

namespace ftbb::bnb {
namespace {

using core::PathCode;

TEST(KnapsackInstance, GeneratorsProduceValidInstances) {
  const auto u = KnapsackInstance::random_uncorrelated(20, 100, 0.5, 1);
  EXPECT_EQ(u.items(), 20u);
  EXPECT_GT(u.capacity, 0);
  const auto s = KnapsackInstance::strongly_correlated(20, 100, 0.5, 1);
  for (std::size_t i = 0; i < s.items(); ++i) {
    EXPECT_EQ(s.profit[i], s.weight[i] + 10);
  }
}

TEST(KnapsackInstance, GeneratorsAreDeterministic) {
  const auto a = KnapsackInstance::random_uncorrelated(10, 50, 0.4, 7);
  const auto b = KnapsackInstance::random_uncorrelated(10, 50, 0.4, 7);
  EXPECT_EQ(a.weight, b.weight);
  EXPECT_EQ(a.profit, b.profit);
  EXPECT_EQ(a.capacity, b.capacity);
}

TEST(KnapsackInstance, DpOptimalKnownCase) {
  KnapsackInstance inst;
  inst.weight = {3, 4, 5};
  inst.profit = {4, 5, 6};
  inst.capacity = 7;
  EXPECT_EQ(inst.dp_optimal_profit(), 9);  // items 0 and 1
}

TEST(KnapsackModel, RootBoundIsAdmissible) {
  // The fractional bound can never be worse (greater) than the optimum.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto inst = KnapsackInstance::random_uncorrelated(15, 60, 0.5, seed);
    KnapsackModel model(inst);
    ASSERT_TRUE(model.known_optimal().has_value());
    EXPECT_LE(model.root_bound(), *model.known_optimal());
  }
}

TEST(KnapsackModel, EvalIsDeterministic) {
  KnapsackModel model(KnapsackInstance::strongly_correlated(12, 50, 0.5, 3));
  const NodeEval a = model.eval(PathCode::root());
  const NodeEval b = model.eval(PathCode::root());
  EXPECT_EQ(a.cost, b.cost);
  ASSERT_EQ(a.children.size(), b.children.size());
  for (std::size_t i = 0; i < a.children.size(); ++i) {
    EXPECT_EQ(a.children[i].var, b.children[i].var);
    EXPECT_EQ(a.children[i].bound, b.children[i].bound);
  }
}

TEST(KnapsackModel, ChildrenBranchOnOneVariable) {
  KnapsackModel model(KnapsackInstance::strongly_correlated(12, 50, 0.5, 3));
  const NodeEval root = model.eval(PathCode::root());
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0].var, root.children[1].var);
  EXPECT_NE(root.children[0].bit, root.children[1].bit);
}

TEST(KnapsackModel, ChildBoundsNeverImproveOnParent) {
  // Fixing a variable can only restrict the relaxation.
  KnapsackModel model(KnapsackInstance::strongly_correlated(14, 50, 0.5, 5));
  const double root_bound = model.root_bound();
  const NodeEval root = model.eval(PathCode::root());
  for (const ChildOut& c : root.children) {
    EXPECT_GE(c.bound, root_bound - 1e-9);
  }
}

TEST(KnapsackModel, VariableOrderVariesAcrossSubtrees) {
  // The paper requires codes to carry condition variables because branching
  // order differs between subtrees (Section 5.3.1); verify our model
  // exhibits that: somewhere in the full tree, two nodes at the same depth
  // branch on different variables. (Uncorrelated instances have
  // non-monotone weights in density order, so the first-fitting-item rule
  // skips different items in different subtrees; strongly correlated ones
  // are weight-sorted and never diverge.)
  const auto inst = KnapsackInstance::random_uncorrelated(14, 40, 0.3, 11);
  KnapsackModel model(inst);
  const BasicTree tree = BasicTree::record(model, 500000);
  std::map<std::size_t, std::set<std::uint32_t>> vars_by_depth;
  // BFS carrying depth.
  std::vector<std::pair<std::int32_t, std::size_t>> stack{{0, 0}};
  while (!stack.empty()) {
    auto [idx, depth] = stack.back();
    stack.pop_back();
    const TreeNode& n = tree.node(static_cast<std::size_t>(idx));
    if (n.is_leaf()) continue;
    vars_by_depth[depth].insert(n.var);
    stack.emplace_back(n.child[0], depth + 1);
    stack.emplace_back(n.child[1], depth + 1);
  }
  bool diverged = false;
  for (const auto& [depth, vars] : vars_by_depth) diverged |= vars.size() > 1;
  EXPECT_TRUE(diverged);
}

TEST(KnapsackModel, BoundOfMatchesChildBound) {
  KnapsackModel model(KnapsackInstance::strongly_correlated(12, 50, 0.5, 9));
  const NodeEval root = model.eval(PathCode::root());
  for (const ChildOut& c : root.children) {
    const PathCode code = PathCode::root().child(c.var, c.bit != 0);
    EXPECT_NEAR(model.bound_of(code), c.bound, 1e-12);
  }
}

TEST(KnapsackModel, CostModelMeanIsRespected) {
  NodeCostModel cost;
  cost.mean = 0.02;
  cost.cv = 0.3;
  cost.seed = 5;
  KnapsackModel model(KnapsackInstance::strongly_correlated(18, 50, 0.5, 4), cost);
  // Sample costs over many nodes.
  double sum = 0.0;
  int n = 0;
  PathCode code = PathCode::root();
  for (int i = 0; i < 200; ++i) {
    const NodeEval e = model.eval(code);
    sum += e.cost;
    ++n;
    if (e.children.empty()) break;
    code = code.child(e.children[0].var, (i % 2) == 0);
  }
  EXPECT_GT(n, 10);
  EXPECT_NEAR(sum / n, 0.02, 0.01);
}

TEST(KnapsackModel, ZeroCvCostIsConstant) {
  NodeCostModel cost;
  cost.mean = 0.5;
  cost.cv = 0.0;
  KnapsackModel model(KnapsackInstance::random_uncorrelated(8, 30, 0.5, 2), cost);
  EXPECT_DOUBLE_EQ(model.eval(PathCode::root()).cost, 0.5);
}

class KnapsackSolveTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KnapsackSolveTest, SequentialMatchesDp) {
  const std::uint64_t seed = GetParam();
  const auto inst = KnapsackInstance::strongly_correlated(16, 50, 0.5, seed);
  KnapsackModel model(inst);
  ASSERT_TRUE(model.known_optimal().has_value());
  const SeqResult res = solve_sequential(model);
  EXPECT_TRUE(res.completed);
  EXPECT_TRUE(res.found_feasible);
  EXPECT_DOUBLE_EQ(res.best_value, *model.known_optimal());
}

TEST_P(KnapsackSolveTest, UncorrelatedMatchesDp) {
  const std::uint64_t seed = GetParam();
  const auto inst = KnapsackInstance::random_uncorrelated(18, 80, 0.45, seed);
  KnapsackModel model(inst);
  ASSERT_TRUE(model.known_optimal().has_value());
  const SeqResult res = solve_sequential(model);
  EXPECT_DOUBLE_EQ(res.best_value, *model.known_optimal());
}

TEST_P(KnapsackSolveTest, DistributedWithCrashesMatchesDp) {
  const std::uint64_t seed = GetParam();
  NodeCostModel cost;
  cost.mean = 1e-3;
  KnapsackModel model(KnapsackInstance::strongly_correlated(16, 50, 0.5, seed),
                      cost);
  ASSERT_TRUE(model.known_optimal().has_value());
  sim::ClusterConfig cfg;
  cfg.workers = 4;
  cfg.seed = seed;
  cfg.worker.report_batch = 4;
  cfg.worker.report_flush_interval = 0.05;
  cfg.worker.table_gossip_interval = 0.2;
  cfg.worker.work_request_timeout = 0.02;
  cfg.worker.idle_backoff = 0.005;
  cfg.time_limit = 300.0;
  const sim::ClusterResult baseline = sim::SimCluster::run(model, cfg);
  ASSERT_TRUE(baseline.all_live_halted);
  EXPECT_DOUBLE_EQ(baseline.solution, *model.known_optimal());
  // Kill half the workers mid-run; still exact.
  cfg.crashes = {{1, baseline.makespan * 0.4}, {2, baseline.makespan * 0.6}};
  const sim::ClusterResult res = sim::SimCluster::run(model, cfg);
  ASSERT_TRUE(res.all_live_halted);
  EXPECT_DOUBLE_EQ(res.solution, *model.known_optimal());
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnapsackSolveTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace ftbb::bnb
