// Differential tests of the chunked, front-coded completion table against
// the pointer trie it replaced (bench/legacy_code_set.hpp).
//
// The simulator charges contraction time from every InsertResult and from
// trie_nodes(), so the two tables must agree on them exactly, and on the
// contracted codes, their stored size and the chain bytes of the exported
// list, after every operation of random sequences over random deep trees.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bench/legacy_code_set.hpp"
#include "bnb/basic_tree.hpp"
#include "core/code_set.hpp"
#include "core/frame.hpp"
#include "support/rng.hpp"

namespace ftbb::core {
namespace {

using bench::LegacyCodeSet;

/// Every node code of a random tree, deep enough that many codes spill past
/// PathCode's inline words.
struct Tree {
  std::vector<PathCode> all;
  std::vector<PathCode> leaves;
};

Tree random_tree(std::uint64_t seed, std::uint64_t nodes) {
  bnb::RandomTreeConfig cfg;
  cfg.target_nodes = nodes;
  cfg.depth_bias = 0.9;
  cfg.seed = seed;
  const bnb::BasicTree tree = bnb::BasicTree::random(cfg);
  Tree out;
  std::vector<std::pair<std::int32_t, PathCode>> stack{{0, PathCode::root()}};
  while (!stack.empty()) {
    auto [idx, code] = std::move(stack.back());
    stack.pop_back();
    const auto& n = tree.node(static_cast<std::size_t>(idx));
    out.all.push_back(code);
    if (n.is_leaf()) {
      out.leaves.push_back(std::move(code));
      continue;
    }
    for (int bit = 0; bit < 2; ++bit) {
      stack.emplace_back(n.child[bit], code.child(n.var, bit != 0));
    }
  }
  std::sort(out.all.begin(), out.all.end());
  std::sort(out.leaves.begin(), out.leaves.end());
  return out;
}

void expect_same_result(const CodeSet::InsertResult& got,
                        const LegacyCodeSet::InsertResult& want) {
  EXPECT_EQ(got.newly_covered, want.newly_covered);
  EXPECT_EQ(got.nodes_walked, want.nodes_walked);
  EXPECT_EQ(got.merges, want.merges);
}

/// Everything observable of the two tables agrees, and both are sound.
void expect_same_table(const CodeSet& table, const LegacyCodeSet& oracle) {
  table.check_invariants();
  oracle.check_invariants();
  ASSERT_EQ(table.code_count(), oracle.code_count());
  EXPECT_EQ(table.trie_nodes(), oracle.trie_nodes());
  EXPECT_EQ(table.encoded_bytes(), oracle.encoded_bytes());
  EXPECT_EQ(table.root_complete(), oracle.root_complete());
  const CodeList exported = table.export_list();
  const CodeList want = oracle.export_list();
  EXPECT_EQ(exported, want);
  EXPECT_EQ(exported.chain_bytes(), want.chain_bytes());
  EXPECT_EQ(table.export_codes(), oracle.export_codes());
  EXPECT_EQ(table.complement(), oracle.complement());
}

class CodeSetDiff : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodeSetDiff, RandomOperationSequencesMatchTheTrie) {
  const std::uint64_t seed = GetParam();
  const Tree tree = random_tree(seed + 500, 601);
  std::size_t max_depth = 0;
  for (const PathCode& c : tree.all) max_depth = std::max(max_depth, c.depth());
  ASSERT_GT(max_depth, std::size_t{PathCode::kInlineWords});
  support::Rng rng(seed * 7 + 1);

  const auto pick = [&](const std::vector<PathCode>& v) -> const PathCode& {
    return v[rng.pick(v.size())];
  };
  const auto shuffled = [&rng](std::vector<PathCode> v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.pick(i)]);
    return v;
  };
  // A peer's table: random leaves completed and contracted.
  const auto peer_export = [&] {
    CodeSet peer;
    const std::size_t n = 1 + rng.pick(tree.leaves.size());
    for (const std::size_t i : rng.sample_without_replacement(tree.leaves.size(), n)) {
      peer.insert(tree.leaves[i]);
    }
    return peer.export_list();
  };
  // Duplicates, nested prefixes (ancestor before and after descendant) and,
  // sometimes, the root.
  const auto mixed = [&] {
    std::vector<PathCode> out;
    for (std::size_t i = 0, n = 1 + rng.pick(40); i < n; ++i) {
      const PathCode& c = pick(tree.all);
      out.push_back(c);
      if (rng.chance(0.2)) out.push_back(c);
      if (c.depth() > 0 && rng.chance(0.3)) out.push_back(c.prefix(rng.pick(c.depth())));
    }
    if (rng.chance(0.1)) {
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(rng.pick(out.size() + 1)),
                 PathCode::root());
    }
    return out;
  };

  CodeSet table;
  LegacyCodeSet oracle;
  for (int step = 0; step < 120; ++step) {
    SCOPED_TRACE(step);
    const std::size_t op = rng.pick(9);
    if (op <= 2) {
      // Single inserts, mostly leaves (the completions a worker makes).
      const PathCode& c = rng.chance(0.8) ? pick(tree.leaves) : pick(tree.all);
      expect_same_result(table.insert(c), oracle.insert(c));
    } else if (op == 3) {
      // A gossip: a peer's export, merged in one pass.
      const CodeList gossip = peer_export();
      expect_same_result(table.insert_all(gossip), oracle.insert_all(gossip));
    } else if (op == 4) {
      // A sorted report batch: a few leaves, sorted and deduplicated.
      std::vector<PathCode> batch;
      for (std::size_t i = 0, n = 1 + rng.pick(8); i < n; ++i) batch.push_back(pick(tree.leaves));
      std::sort(batch.begin(), batch.end());
      batch.erase(std::unique(batch.begin(), batch.end()), batch.end());
      const CodeList list(batch);
      expect_same_result(table.insert_all(list), oracle.insert_all(list));
    } else if (op == 5) {
      // Lists that step back: shuffled exports and mixed lists, through
      // both overloads.
      const std::vector<PathCode> codes =
          rng.chance(0.5) ? shuffled(peer_export().to_vector()) : mixed();
      if (rng.chance(0.5)) {
        const CodeList list(codes);
        expect_same_result(table.insert_all(list), oracle.insert_all(list));
      } else {
        expect_same_result(table.insert_all(codes), oracle.insert_all(codes));
      }
    } else if (op == 6) {
      // A sorted list with duplicates and nested prefixes: still one pass.
      std::vector<PathCode> codes = mixed();
      std::sort(codes.begin(), codes.end());
      const CodeList list(codes);
      expect_same_result(table.insert_all(list), oracle.insert_all(list));
    } else if (op == 7) {
      // Lookups over every node of the tree.
      for (const PathCode& c : tree.all) {
        ASSERT_EQ(table.covered(c), oracle.covered(c)) << c.to_string();
        ASSERT_EQ(table.covering_prefix_len(c), oracle.covering_prefix_len(c))
            << c.to_string();
      }
    } else {
      // Recovery closes the table: the complement's regions, completed.
      if (rng.chance(0.3)) {
        const std::vector<PathCode> regions = table.complement();
        expect_same_result(table.insert_all(regions), oracle.insert_all(regions));
      } else if (rng.chance(0.1)) {
        table.clear();
        oracle.clear();
      }
    }
    expect_same_table(table, oracle);
    if (HasFatalFailure()) return;
  }
}

TEST_P(CodeSetDiff, GossipMergesBetweenPeersMatchTheTrie) {
  // Peers completing disjoint leaves and gossiping whole tables to each
  // other, as table1-dense workers do, until every table is the root.
  const std::uint64_t seed = GetParam();
  const Tree tree = random_tree(seed + 900, 401);
  support::Rng rng(seed * 11 + 5);
  constexpr std::size_t kPeers = 4;
  std::vector<CodeSet> tables(kPeers);
  std::vector<LegacyCodeSet> oracles(kPeers);
  std::vector<std::size_t> order(tree.leaves.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.pick(i)]);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::size_t p = i % kPeers;
    const PathCode& leaf = tree.leaves[order[i]];
    expect_same_result(tables[p].insert(leaf), oracles[p].insert(leaf));
    if (rng.chance(0.3)) {
      const std::size_t to = rng.pick(kPeers);
      const CodeList gossip = tables[p].export_list();
      expect_same_result(tables[to].insert_all(gossip), oracles[to].insert_all(gossip));
      expect_same_table(tables[to], oracles[to]);
      if (HasFatalFailure()) return;
    }
  }
  for (std::size_t p = 0; p < kPeers; ++p) {
    for (std::size_t q = 0; q < kPeers; ++q) {
      const CodeList gossip = tables[q].export_list();
      expect_same_result(tables[p].insert_all(gossip), oracles[p].insert_all(gossip));
    }
    expect_same_table(tables[p], oracles[p]);
    EXPECT_TRUE(tables[p].root_complete());
  }
}

TEST_P(CodeSetDiff, SparseSortedListsOverALargeTableMatchTheTrie) {
  // Short sorted lists over a table of a hundred chunks or more: most
  // chunks lie between two list codes and pass through whole.
  const std::uint64_t seed = GetParam();
  const Tree tree = random_tree(seed + 1700, 12001);
  support::Rng rng(seed * 13 + 7);
  CodeSet table;
  LegacyCodeSet oracle;
  for (const std::size_t i :
       rng.sample_without_replacement(tree.leaves.size(), tree.leaves.size() * 3 / 5)) {
    expect_same_result(table.insert(tree.leaves[i]), oracle.insert(tree.leaves[i]));
  }
  expect_same_table(table, oracle);
  ASSERT_GT(table.code_count(), 100 * CodeList::kRestart);
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE(round);
    std::vector<PathCode> codes;
    for (std::size_t i = 0, n = 1 + rng.pick(30); i < n; ++i) {
      codes.push_back(rng.chance(0.8) ? tree.leaves[rng.pick(tree.leaves.size())]
                                      : tree.all[rng.pick(tree.all.size())]);
    }
    std::sort(codes.begin(), codes.end());
    const CodeList list(codes);
    expect_same_result(table.insert_all(list), oracle.insert_all(list));
    expect_same_table(table, oracle);
    if (HasFatalFailure()) return;
  }
}

TEST(CodeSetDiffShape, EmptyTableAllocatesNothingAndStaysSmall) {
  const CodeSet empty;
  EXPECT_EQ(empty.allocated_bytes(), 0u);
  EXPECT_EQ(empty.trie_nodes(), 1u);
  EXPECT_TRUE(empty.export_list().empty());
  EXPECT_LE(sizeof(CodeSet), 160u);  // the trie's object size, not exceeded
}

TEST(CodeSetDiffShape, ChunksStayWithinOneRestartRun) {
  // A long run of inserts in and out of order keeps every chunk within
  // CodeList::kRestart codes (check_invariants() checks the bound) and the
  // table's records far smaller than the codes' whole words.
  const Tree tree = random_tree(77, 4001);
  support::Rng rng(3);
  CodeSet table;
  LegacyCodeSet oracle;
  std::size_t words = 0;
  for (const std::size_t i :
       rng.sample_without_replacement(tree.leaves.size(), tree.leaves.size() / 2)) {
    expect_same_result(table.insert(tree.leaves[i]), oracle.insert(tree.leaves[i]));
  }
  expect_same_table(table, oracle);
  for (const PathCode& c : table.export_codes()) words += c.depth();
  EXPECT_LT(table.allocated_bytes(), words * sizeof(std::uint32_t));
}

TEST_P(CodeSetDiff, SingleInsertsInEveryOrderMatchTheTrie) {
  // Single inserts rewrite the chunk they land in: at a chunk's front or
  // back, before the table's first code, contracting with a neighbouring
  // chunk's code, subsuming codes up to a chunk boundary. Ascending and
  // descending leaf order hit the table's ends; random order its middle.
  const std::uint64_t seed = GetParam();
  const Tree tree = random_tree(seed + 1300, 1201);
  support::Rng rng(seed * 3 + 2);
  std::vector<PathCode> shuffled = tree.leaves;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.pick(i)]);
  }
  const std::vector<PathCode> descending(tree.leaves.rbegin(), tree.leaves.rend());
  for (const std::vector<PathCode>* order :
       std::vector<const std::vector<PathCode>*>{&tree.leaves, &descending, &shuffled}) {
    CodeSet table;
    LegacyCodeSet oracle;
    for (std::size_t i = 0; i < order->size(); ++i) {
      // Now and then an interior node first, which subsumes what lies
      // under it.
      if (rng.chance(0.05)) {
        const PathCode& inner = tree.all[rng.pick(tree.all.size())];
        expect_same_result(table.insert(inner), oracle.insert(inner));
      }
      const PathCode& c = (*order)[i];
      expect_same_result(table.insert(c), oracle.insert(c));
      ASSERT_EQ(table.trie_nodes(), oracle.trie_nodes()) << "insert " << i;
      ASSERT_EQ(table.encoded_bytes(), oracle.encoded_bytes()) << "insert " << i;
      if (i % 97 == 0) expect_same_table(table, oracle);
      if (HasFatalFailure()) return;
    }
    expect_same_table(table, oracle);
    EXPECT_TRUE(table.root_complete());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodeSetDiff,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace ftbb::core
