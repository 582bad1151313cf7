#include <gtest/gtest.h>

#include "bnb/basic_tree.hpp"
#include "bnb/knapsack.hpp"
#include "bnb/sequential.hpp"

namespace ftbb::bnb {
namespace {

TEST(Sequential, AllSelectRulesFindTheOptimum) {
  const auto inst = KnapsackInstance::strongly_correlated(14, 50, 0.5, 2);
  KnapsackModel model(inst);
  ASSERT_TRUE(model.known_optimal().has_value());
  for (const SelectRule rule :
       {SelectRule::kBestFirst, SelectRule::kDepthFirst, SelectRule::kBreadthFirst}) {
    SeqOptions opt;
    opt.rule = rule;
    const SeqResult res = solve_sequential(model, opt);
    EXPECT_DOUBLE_EQ(res.best_value, *model.known_optimal()) << to_string(rule);
    EXPECT_TRUE(res.completed);
  }
}

TEST(Sequential, EliminationReducesExpansions) {
  const auto inst = KnapsackInstance::strongly_correlated(13, 50, 0.5, 6);
  KnapsackModel model(inst);
  SeqOptions with;
  SeqOptions without;
  without.enable_elimination = false;
  const SeqResult pruned = solve_sequential(model, with);
  const SeqResult full = solve_sequential(model, without);
  EXPECT_LT(pruned.expanded, full.expanded);
  EXPECT_DOUBLE_EQ(pruned.best_value, full.best_value);
  EXPECT_GT(pruned.eliminated, 0u);
}

TEST(Sequential, BestFirstExpandsNoMoreThanDepthFirst) {
  // Best-first is optimal in nodes expanded among admissible orders for a
  // fixed incumbent discovery sequence; in practice it should not lose to
  // depth-first on these instances. (Not a theorem — a regression guard on
  // the selection implementation.)
  const auto inst = KnapsackInstance::strongly_correlated(14, 50, 0.5, 8);
  KnapsackModel model(inst);
  SeqOptions best;
  best.rule = SelectRule::kBestFirst;
  SeqOptions breadth;
  breadth.rule = SelectRule::kBreadthFirst;
  EXPECT_LE(solve_sequential(model, best).expanded,
            solve_sequential(model, breadth).expanded * 2);
}

TEST(Sequential, MaxExpansionsStopsEarly) {
  const auto inst = KnapsackInstance::strongly_correlated(20, 100, 0.5, 1);
  KnapsackModel model(inst);
  SeqOptions opt;
  opt.max_expansions = 10;
  const SeqResult res = solve_sequential(model, opt);
  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.expanded, 10u);
}

TEST(Sequential, TotalCostSumsExpandedNodes) {
  RandomTreeConfig cfg;
  cfg.target_nodes = 101;
  cfg.seed = 4;
  const BasicTree tree = BasicTree::random(cfg);
  TreeProblem exhaustive(&tree, /*honor_bounds=*/false);
  const SeqResult res = solve_sequential(exhaustive);
  EXPECT_EQ(res.expanded, tree.size());
  EXPECT_NEAR(res.total_cost, tree.total_cost(), 1e-9);
}

TEST(Sequential, CountsLeafKinds) {
  RandomTreeConfig cfg;
  cfg.target_nodes = 201;
  cfg.seed = 10;
  cfg.feasible_leaf_fraction = 0.5;
  const BasicTree tree = BasicTree::random(cfg);
  TreeProblem exhaustive(&tree, /*honor_bounds=*/false);
  const SeqResult res = solve_sequential(exhaustive);
  EXPECT_EQ(res.feasible_leaves + res.dead_ends, tree.leaf_count());
  EXPECT_GT(res.feasible_leaves, 0u);
}

TEST(Sequential, BestCodeIsAFeasibleLeaf) {
  const auto inst = KnapsackInstance::strongly_correlated(12, 40, 0.5, 3);
  KnapsackModel model(inst);
  const SeqResult res = solve_sequential(model);
  const NodeEval leaf = model.eval(res.best_code);
  EXPECT_TRUE(leaf.feasible_leaf);
  EXPECT_DOUBLE_EQ(leaf.value, res.best_value);
}

}  // namespace
}  // namespace ftbb::bnb
