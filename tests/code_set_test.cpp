// Tests for the completion table (list contraction, complement, coverage).
//
// The property tests build random *consistent* code sets by generating a
// random basic tree and completing random subsets of its leaves, then
// compare CodeSet against an oracle that tracks completion per tree node
// with explicit upward propagation.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bnb/basic_tree.hpp"
#include "core/code_set.hpp"
#include "support/rng.hpp"

namespace ftbb::core {
namespace {

using bnb::BasicTree;
using bnb::RandomTreeConfig;

PathCode path(std::initializer_list<std::pair<std::uint32_t, bool>> steps) {
  PathCode code = PathCode::root();
  for (auto [var, bit] : steps) code = code.child(var, bit);
  return code;
}

TEST(CodeSet, EmptyTable) {
  CodeSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.code_count(), 0u);
  EXPECT_FALSE(set.root_complete());
  EXPECT_FALSE(set.covered(PathCode::root()));
  EXPECT_TRUE(set.export_codes().empty());
  set.check_invariants();
}

TEST(CodeSet, EmptyTableComplementIsRoot) {
  CodeSet set;
  const auto complement = set.complement();
  ASSERT_EQ(complement.size(), 1u);
  EXPECT_TRUE(complement[0].is_root());
}

TEST(CodeSet, SingleInsert) {
  CodeSet set;
  const PathCode c = path({{1, false}, {2, true}});
  const auto r = set.insert(c);
  EXPECT_TRUE(r.newly_covered);
  EXPECT_TRUE(set.covered(c));
  EXPECT_FALSE(set.covered(c.sibling()));
  EXPECT_FALSE(set.covered(PathCode::root()));
  EXPECT_TRUE(set.covered(c.child(9, true)));  // descendants are covered
  EXPECT_EQ(set.code_count(), 1u);
  set.check_invariants();
}

TEST(CodeSet, InsertIsIdempotent) {
  CodeSet set;
  const PathCode c = path({{1, false}});
  EXPECT_TRUE(set.insert(c).newly_covered);
  EXPECT_FALSE(set.insert(c).newly_covered);
  EXPECT_EQ(set.code_count(), 1u);
}

TEST(CodeSet, SiblingsContractToParent) {
  CodeSet set;
  set.insert(path({{1, false}, {2, false}}));
  EXPECT_EQ(set.code_count(), 1u);
  const auto r = set.insert(path({{1, false}, {2, true}}));
  EXPECT_EQ(r.merges, 1u);
  EXPECT_EQ(set.code_count(), 1u);
  const auto codes = set.export_codes();
  ASSERT_EQ(codes.size(), 1u);
  EXPECT_EQ(codes[0], path({{1, false}}));  // the parent
  set.check_invariants();
}

TEST(CodeSet, ContractionCascadesToRoot) {
  // Completing all four grandchildren contracts pairwise up to the root —
  // the termination condition of Section 5.4.
  CodeSet set;
  set.insert(path({{1, false}, {2, false}}));
  set.insert(path({{1, false}, {2, true}}));
  EXPECT_FALSE(set.root_complete());
  set.insert(path({{1, true}, {3, false}}));
  const auto r = set.insert(path({{1, true}, {3, true}}));
  EXPECT_GE(r.merges, 2u);  // pair -> (x1,1), then siblings -> root
  EXPECT_TRUE(set.root_complete());
  EXPECT_EQ(set.code_count(), 1u);
  ASSERT_EQ(set.export_codes().size(), 1u);
  EXPECT_TRUE(set.export_codes()[0].is_root());
  EXPECT_TRUE(set.complement().empty());
  set.check_invariants();
}

TEST(CodeSet, AncestorSubsumesDescendants) {
  CodeSet set;
  set.insert(path({{1, false}, {2, false}, {4, true}}));
  set.insert(path({{1, false}, {2, true}}));
  EXPECT_EQ(set.code_count(), 2u);
  // Insert the ancestor of both: everything below (x1,0) collapses.
  set.insert(path({{1, false}}));
  EXPECT_EQ(set.code_count(), 1u);
  EXPECT_TRUE(set.covered(path({{1, false}, {2, false}})));
  set.check_invariants();
}

TEST(CodeSet, DescendantOfCompleteIsNoop) {
  CodeSet set;
  set.insert(path({{1, false}}));
  const auto r = set.insert(path({{1, false}, {2, true}, {3, false}}));
  EXPECT_FALSE(r.newly_covered);
  EXPECT_EQ(set.code_count(), 1u);
}

TEST(CodeSet, RootInsertCompletesEverything) {
  CodeSet set;
  set.insert(path({{1, false}, {2, true}}));
  set.insert(PathCode::root());
  EXPECT_TRUE(set.root_complete());
  EXPECT_EQ(set.code_count(), 1u);
  EXPECT_TRUE(set.covered(path({{5, true}})));
  set.check_invariants();
}

TEST(CodeSet, CoveringCode) {
  CodeSet set;
  const PathCode c = path({{1, false}, {2, true}});
  set.insert(c);
  EXPECT_EQ(set.covering_code(c), c);
  EXPECT_EQ(set.covering_code(c.child(7, false)), c);
  EXPECT_EQ(set.covering_code(c.sibling()), std::nullopt);
  EXPECT_EQ(set.covering_code(PathCode::root()), std::nullopt);
  set.insert(c.sibling());
  // After contraction the covering code is the parent.
  EXPECT_EQ(set.covering_code(c), path({{1, false}}));
}

TEST(CodeSet, ComplementListsUnreportedSiblings) {
  CodeSet set;
  set.insert(path({{1, false}, {2, true}}));
  const auto complement = set.complement();
  // Uncovered regions: (x1,0)(x2,0) and (x1,1).
  ASSERT_EQ(complement.size(), 2u);
  EXPECT_NE(std::find(complement.begin(), complement.end(),
                      path({{1, false}, {2, false}})),
            complement.end());
  EXPECT_NE(std::find(complement.begin(), complement.end(), path({{1, true}})),
            complement.end());
}

TEST(CodeSet, ComplementIsDisjointFromTable) {
  CodeSet set;
  set.insert(path({{1, false}, {2, true}, {5, false}}));
  set.insert(path({{1, true}, {3, false}}));
  for (const PathCode& c : set.complement()) {
    EXPECT_FALSE(set.covered(c)) << c.to_string();
    // And no completed code lies inside a complement region.
    for (const PathCode& done : set.export_codes()) {
      EXPECT_FALSE(c.contains(done));
    }
  }
}

TEST(CodeSet, ExportOrderIsDeterministicDfs) {
  CodeSet a;
  CodeSet b;
  const std::vector<PathCode> codes = {
      path({{1, true}, {3, false}}),
      path({{1, false}, {2, true}}),
      path({{1, false}, {2, false}, {4, true}}),
  };
  for (const auto& c : codes) a.insert(c);
  for (auto it = codes.rbegin(); it != codes.rend(); ++it) b.insert(*it);
  EXPECT_EQ(a.export_codes(), b.export_codes());
  EXPECT_TRUE(a == b);
}

TEST(CodeSet, EncodedBytesTracksExport) {
  CodeSet set;
  set.insert(path({{1, false}, {2, true}}));
  set.insert(path({{1, true}}));
  support::ByteWriter w;
  const auto codes = set.export_codes();
  w.varint(codes.size());
  for (const auto& c : codes) c.encode(w);
  EXPECT_EQ(set.encoded_bytes(), w.size());
}

TEST(CodeSet, ClearResets) {
  CodeSet set;
  set.insert(path({{1, false}}));
  set.clear();
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.root_complete());
  EXPECT_EQ(set.trie_nodes(), 1u);
  set.check_invariants();
}

TEST(CodeSetDeath, InconsistentVariableAborts) {
  CodeSet set;
  set.insert(path({{1, false}, {2, false}}));
  ASSERT_DEATH(set.insert(path({{1, false}, {9, true}})),
               "disagree on a node's branching variable");
}

// ---------------------------------------------------------------------------
// Property tests against an oracle on random trees
// ---------------------------------------------------------------------------

struct Oracle {
  const BasicTree* tree;
  std::vector<char> complete;  // per node index

  explicit Oracle(const BasicTree* t) : tree(t), complete(t->size(), 0) {}

  void mark(std::int32_t idx) {
    if (complete[static_cast<std::size_t>(idx)]) return;
    complete[static_cast<std::size_t>(idx)] = 1;
    propagate();
  }

  void propagate() {
    // Fixpoint: a node with two complete children is complete; children of
    // complete nodes are complete.
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t i = 0; i < tree->size(); ++i) {
        const auto& n = tree->node(i);
        if (n.is_leaf()) continue;
        const bool kids = complete[static_cast<std::size_t>(n.child[0])] &&
                          complete[static_cast<std::size_t>(n.child[1])];
        if (kids && !complete[i]) {
          complete[i] = 1;
          changed = true;
        }
        if (complete[i]) {
          for (const auto c : n.child) {
            if (!complete[static_cast<std::size_t>(c)]) {
              complete[static_cast<std::size_t>(c)] = 1;
              changed = true;
            }
          }
        }
      }
    }
  }
};

/// Collects (code, node index) for every node of the tree.
void collect_codes(const BasicTree& tree, std::int32_t idx, const PathCode& code,
                   std::vector<std::pair<PathCode, std::int32_t>>& out) {
  out.emplace_back(code, idx);
  const auto& n = tree.node(static_cast<std::size_t>(idx));
  if (n.is_leaf()) return;
  for (int bit = 0; bit < 2; ++bit) {
    collect_codes(tree, n.child[bit], code.child(n.var, bit != 0), out);
  }
}

class CodeSetPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodeSetPropertyTest, MatchesOracleOnRandomCompletions) {
  const std::uint64_t seed = GetParam();
  RandomTreeConfig cfg;
  cfg.target_nodes = 301;
  cfg.seed = seed;
  const BasicTree tree = BasicTree::random(cfg);
  std::vector<std::pair<PathCode, std::int32_t>> nodes;
  collect_codes(tree, 0, PathCode::root(), nodes);

  support::Rng rng(seed * 13 + 7);
  CodeSet set;
  Oracle oracle(&tree);
  // Complete a random sequence of leaves (the realistic input: interior
  // completions arise only from contraction).
  std::vector<std::size_t> leaf_indices;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (tree.node(static_cast<std::size_t>(nodes[i].second)).is_leaf()) {
      leaf_indices.push_back(i);
    }
  }
  const std::size_t to_complete = leaf_indices.size() / 2 + 1;
  const auto picks =
      rng.sample_without_replacement(leaf_indices.size(), to_complete);
  for (const std::size_t pick : picks) {
    const auto& [code, idx] = nodes[leaf_indices[pick]];
    set.insert(code);
    oracle.mark(idx);
  }
  set.check_invariants();

  // Coverage agrees with the oracle on every node of the tree.
  for (const auto& [code, idx] : nodes) {
    EXPECT_EQ(set.covered(code),
              oracle.complete[static_cast<std::size_t>(idx)] != 0)
        << code.to_string();
  }

  // The complement + the completed set partition the leaves: every leaf is
  // covered either by the table or by exactly one complement region.
  const auto complement = set.complement();
  for (const auto& [code, idx] : nodes) {
    if (!tree.node(static_cast<std::size_t>(idx)).is_leaf()) continue;
    int covering_regions = 0;
    for (const PathCode& region : complement) {
      if (region.contains(code)) ++covering_regions;
    }
    if (set.covered(code)) {
      EXPECT_EQ(covering_regions, 0) << code.to_string();
    } else {
      EXPECT_EQ(covering_regions, 1) << code.to_string();
    }
  }
}

TEST_P(CodeSetPropertyTest, InsertionOrderDoesNotMatter) {
  const std::uint64_t seed = GetParam();
  RandomTreeConfig cfg;
  cfg.target_nodes = 201;
  cfg.seed = seed + 1000;
  const BasicTree tree = BasicTree::random(cfg);
  std::vector<std::pair<PathCode, std::int32_t>> nodes;
  collect_codes(tree, 0, PathCode::root(), nodes);

  std::vector<PathCode> leaves;
  for (const auto& [code, idx] : nodes) {
    if (tree.node(static_cast<std::size_t>(idx)).is_leaf()) leaves.push_back(code);
  }
  support::Rng rng(seed);
  CodeSet forward;
  for (const auto& c : leaves) forward.insert(c);
  // Shuffled insertion produces the identical contracted table.
  std::vector<PathCode> shuffled = leaves;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.pick(i)]);
  }
  CodeSet backward;
  for (const auto& c : shuffled) backward.insert(c);
  EXPECT_TRUE(forward == backward);
  // All leaves complete -> the whole tree contracts to the root.
  EXPECT_TRUE(forward.root_complete());
}

TEST_P(CodeSetPropertyTest, MergingPartialTablesEqualsDirectInsert) {
  const std::uint64_t seed = GetParam();
  RandomTreeConfig cfg;
  cfg.target_nodes = 201;
  cfg.seed = seed + 2000;
  const BasicTree tree = BasicTree::random(cfg);
  std::vector<std::pair<PathCode, std::int32_t>> nodes;
  collect_codes(tree, 0, PathCode::root(), nodes);
  std::vector<PathCode> leaves;
  for (const auto& [code, idx] : nodes) {
    if (tree.node(static_cast<std::size_t>(idx)).is_leaf()) leaves.push_back(code);
  }
  // Split leaves across two "workers"; merging their contracted exports into
  // a third table equals inserting everything directly (epidemic-merge
  // correctness).
  CodeSet a;
  CodeSet b;
  CodeSet direct;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    (i % 2 ? a : b).insert(leaves[i]);
    direct.insert(leaves[i]);
  }
  CodeSet merged;
  merged.insert_all(a.export_codes());
  merged.insert_all(b.export_codes());
  EXPECT_TRUE(merged == direct);
  merged.check_invariants();
}

TEST_P(CodeSetPropertyTest, ComplementUnionExportTilesTreeAndDrivesRootComplete) {
  const std::uint64_t seed = GetParam();
  RandomTreeConfig cfg;
  cfg.target_nodes = 301;
  cfg.seed = seed + 3000;
  const BasicTree tree = BasicTree::random(cfg);
  std::vector<std::pair<PathCode, std::int32_t>> nodes;
  collect_codes(tree, 0, PathCode::root(), nodes);
  std::vector<std::size_t> leaf_indices;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (tree.node(static_cast<std::size_t>(nodes[i].second)).is_leaf()) {
      leaf_indices.push_back(i);
    }
  }

  support::Rng rng(seed * 31 + 11);
  CodeSet set;
  // Random completed subset (possibly empty, possibly everything).
  const std::size_t to_complete = rng.pick(leaf_indices.size() + 1);
  const auto picks =
      rng.sample_without_replacement(leaf_indices.size(), to_complete);
  for (const std::size_t pick : picks) {
    set.insert(nodes[leaf_indices[pick]].first);
  }
  set.check_invariants();

  const std::vector<PathCode> exported = set.export_codes();
  const std::vector<PathCode> complement = set.complement();

  // The two lists are disjoint region sets: no code of one lies inside a
  // region of the other.
  for (const PathCode& e : exported) {
    for (const PathCode& c : complement) {
      EXPECT_FALSE(e.contains(c)) << e.to_string() << " vs " << c.to_string();
      EXPECT_FALSE(c.contains(e)) << c.to_string() << " vs " << e.to_string();
    }
  }

  // Exact tiling: every leaf of the underlying tree lies in exactly one
  // region of export ∪ complement.
  std::vector<PathCode> regions = exported;
  regions.insert(regions.end(), complement.begin(), complement.end());
  for (const std::size_t i : leaf_indices) {
    const PathCode& leaf = nodes[i].first;
    int covering = 0;
    for (const PathCode& region : regions) {
      if (region.contains(leaf)) ++covering;
    }
    EXPECT_EQ(covering, 1) << leaf.to_string();
  }

  // Failure recovery closes the computation: handing the complement regions
  // back as completions (what re-execution eventually reports) contracts the
  // table to the root.
  CodeSet recovered = set;
  recovered.insert_all(complement);
  EXPECT_TRUE(recovered.root_complete());
  recovered.check_invariants();

  // And a cold restart from the two exported lists alone rebuilds a
  // root-complete table (self-containment of codes).
  CodeSet rebuilt;
  rebuilt.insert_all(exported);
  rebuilt.insert_all(complement);
  EXPECT_TRUE(rebuilt.root_complete());
}

/// Twin-table differential: merging `list` with insert_all() (both
/// overloads) must give exactly the InsertResult, table and trie footprint
/// of per-code insert() calls in list order — the simulator charges modeled
/// contraction time from nodes_walked + merges.
void expect_merge_matches_per_code(const CodeSet& start,
                                   const std::vector<PathCode>& list) {
  CodeSet per_code = start;
  CodeSet::InsertResult want;
  for (const PathCode& c : list) {
    const CodeSet::InsertResult r = per_code.insert(c);
    want.newly_covered = want.newly_covered || r.newly_covered;
    want.nodes_walked += r.nodes_walked;
    want.merges += r.merges;
  }
  CodeSet from_list = start;
  CodeSet from_span = start;
  const CodeSet::InsertResult got = from_list.insert_all(CodeList(list));
  const CodeSet::InsertResult got_span = from_span.insert_all(list);
  for (const auto& [table, r] : {std::pair{&from_list, got}, std::pair{&from_span, got_span}}) {
    EXPECT_EQ(r.newly_covered, want.newly_covered);
    EXPECT_EQ(r.nodes_walked, want.nodes_walked);
    EXPECT_EQ(r.merges, want.merges);
    EXPECT_EQ(table->export_codes(), per_code.export_codes());
    EXPECT_EQ(table->trie_nodes(), per_code.trie_nodes());
    EXPECT_EQ(table->encoded_bytes(), per_code.encoded_bytes());
    // The export sizes its chain links from the trie's turn nodes; a list
    // built from the same codes compares their words.
    EXPECT_EQ(table->export_list().chain_bytes(),
              CodeList(table->export_codes()).chain_bytes());
    table->check_invariants();
  }
  per_code.check_invariants();
}

TEST_P(CodeSetPropertyTest, InsertAllMatchesPerCodeInserts) {
  const std::uint64_t seed = GetParam();
  RandomTreeConfig cfg;
  cfg.target_nodes = 401;
  cfg.depth_bias = 0.9;  // deep, B&B-like: many codes past 32 inline words
  cfg.seed = seed + 4000;
  const BasicTree tree = BasicTree::random(cfg);
  std::vector<std::pair<PathCode, std::int32_t>> nodes;
  collect_codes(tree, 0, PathCode::root(), nodes);
  std::vector<PathCode> all;
  std::vector<PathCode> leaves;
  std::vector<PathCode> inner;  // interior nodes below the root
  std::size_t max_depth = 0;
  for (const auto& [code, idx] : nodes) {
    all.push_back(code);
    max_depth = std::max(max_depth, code.depth());
    if (tree.node(static_cast<std::size_t>(idx)).is_leaf()) {
      leaves.push_back(code);
    } else if (!code.is_root()) {
      inner.push_back(code);
    }
  }
  ASSERT_GT(max_depth, PathCode::kInlineWords);
  support::Rng rng(seed * 17 + 3);
  const auto shuffled = [&rng](std::vector<PathCode> v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.pick(i)]);
    return v;
  };
  const auto random_leaves = [&](std::size_t n) {
    std::vector<PathCode> out;
    for (const std::size_t i : rng.sample_without_replacement(leaves.size(), n)) {
      out.push_back(leaves[i]);
    }
    return out;
  };

  // Receivers: empty, and one overlapping any sender below.
  CodeSet partial;
  for (const PathCode& c : random_leaves(leaves.size() / 3)) partial.insert(c);
  const std::vector<const CodeSet*> receivers = {nullptr, &partial};

  std::vector<std::vector<PathCode>> lists;
  // A sender's DFS export (a gossip), and the same codes shuffled.
  CodeSet sender;
  for (const PathCode& c : random_leaves(leaves.size() / 2)) sender.insert(c);
  lists.push_back(sender.export_codes());
  lists.push_back(shuffled(sender.export_codes()));
  // Duplicates, nested prefixes (ancestor before and after descendant) and
  // the root somewhere in the middle.
  {
    std::vector<PathCode> mixed;
    for (int i = 0; i < 60; ++i) {
      const PathCode& c = all[rng.pick(all.size())];
      mixed.push_back(c);
      if (rng.chance(0.3)) mixed.push_back(c);
      if (c.depth() > 0 && rng.chance(0.4)) {
        mixed.push_back(c.prefix(rng.pick(c.depth())));
      }
    }
    std::vector<PathCode> with_root = mixed;
    with_root.insert(with_root.begin() + static_cast<std::ptrdiff_t>(mixed.size() / 2),
                     PathCode::root());
    lists.push_back(mixed);
    lists.push_back(shuffled(mixed));
    lists.push_back(with_root);
  }
  // Long runs under one covering node: an interior node, then its whole
  // subtree in DFS order (all skipped once the node is complete).
  {
    std::vector<PathCode> run;
    const PathCode& top = inner[rng.pick(inner.size())];
    run.push_back(top);
    for (const PathCode& c : all) {
      if (top.is_ancestor_of(c)) run.push_back(c);
    }
    lists.push_back(run);
  }
  // Contraction cascades up to the root: every leaf, in DFS order and in
  // reverse (the last insert of each completes the root).
  lists.push_back(leaves);
  lists.push_back(std::vector<PathCode>(leaves.rbegin(), leaves.rend()));
  lists.push_back(shuffled(leaves));

  for (const CodeSet* receiver : receivers) {
    const CodeSet start = receiver == nullptr ? CodeSet() : *receiver;
    for (const std::vector<PathCode>& list : lists) {
      expect_merge_matches_per_code(start, list);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodeSetPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace ftbb::core
