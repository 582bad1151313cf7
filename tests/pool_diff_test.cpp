// Differential test: ActivePool against the seed flat-heap pool.
//
// The worker's completion pipeline observably depends not just on pop order
// but on the heap-array order in which removals report their victims (report
// batching, contraction charges, last-local-completion tracking). These
// tests therefore assert *operation-for-operation identity* — same pop
// sequence, same victim vectors in the same order, same extraction sets —
// over long randomized mixed op streams, for all three SelectRules.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "bench/legacy_pool.hpp"
#include "bnb/pool.hpp"
#include "core/code_set.hpp"
#include "support/rng.hpp"

namespace ftbb::bnb {
namespace {

using bench::LegacyPool;
using core::CodeSet;
using core::PathCode;

PathCode random_code(support::Rng& rng, std::size_t max_depth) {
  const std::size_t depth = rng.pick(max_depth + 1);
  PathCode code = PathCode::root();
  for (std::size_t d = 0; d < depth; ++d) {
    // Few distinct variables per level -> dense sibling/ancestor collisions.
    code = code.child(static_cast<std::uint32_t>(d * 3 + rng.pick(2)),
                      rng.chance(0.5));
  }
  return code;
}

Subproblem random_problem(support::Rng& rng) {
  // Coarse bounds provoke ties; ties exercise the code/seq tie-breaks.
  return Subproblem{random_code(rng, 10),
                    static_cast<double>(rng.pick(64))};
}

/// Codes compatible with a single underlying search tree (every node at
/// depth d branches on variable d) — required by CodeSet's consistency
/// checks in the table-driven test below.
PathCode tree_code(support::Rng& rng, std::size_t max_depth) {
  const std::size_t depth = rng.pick(max_depth + 1);
  PathCode code = PathCode::root();
  for (std::size_t d = 0; d < depth; ++d) {
    code = code.child(static_cast<std::uint32_t>(d), rng.chance(0.5));
  }
  return code;
}

/// The predicate of a covered sweep over `regions`: a subproblem is covered
/// when some region is an ancestor of it or equal to it.
std::function<bool(const Subproblem&)> in_regions(
    const std::vector<PathCode>& regions) {
  return [&regions](const Subproblem& p) {
    return std::any_of(regions.begin(), regions.end(),
                       [&p](const PathCode& r) { return r.contains(p.code); });
  };
}

void expect_same(const std::vector<Subproblem>& a,
                 const std::vector<Subproblem>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << what << " diverged at victim " << i;
  }
}

class PoolDiff : public ::testing::TestWithParam<SelectRule> {};

TEST_P(PoolDiff, MixedOpStreamIsOperationIdentical) {
  const SelectRule rule = GetParam();
  support::Rng rng(0xF00D + static_cast<std::uint64_t>(rule));
  ActivePool pool(rule);
  LegacyPool legacy(rule);

  for (int step = 0; step < 20000; ++step) {
    const double dice = rng.uniform();
    if (pool.empty() || dice < 0.50) {
      Subproblem p = random_problem(rng);
      legacy.push(p);
      pool.push(std::move(p));
    } else if (dice < 0.72) {
      EXPECT_EQ(pool.pop(), legacy.pop()) << "pop diverged at step " << step;
    } else if (dice < 0.82) {
      const double threshold = static_cast<double>(rng.pick(72));
      const auto got = pool.prune_above(threshold);
      const auto want = legacy.remove_if(
          [threshold](const Subproblem& p) { return p.bound >= threshold; });
      expect_same(got, want, "prune_above");
    } else if (dice < 0.92) {
      // Covered sweep over a few random, possibly nested, regions.
      std::vector<PathCode> regions;
      const std::size_t n_regions = 1 + rng.pick(3);
      for (std::size_t i = 0; i < n_regions; ++i) {
        regions.push_back(random_code(rng, 6));
      }
      const auto covered = in_regions(regions);
      expect_same(pool.remove_if(covered), legacy.remove_if(covered),
                  "covered remove_if");
    } else {
      const std::size_t k = 1 + rng.pick(8);
      expect_same(pool.extract_for_sharing(k), legacy.extract_for_sharing(k),
                  "extract_for_sharing");
    }
    ASSERT_EQ(pool.size(), legacy.size());
    ASSERT_EQ(pool.best_bound(), legacy.best_bound());
    if (step % 1024 == 0) pool.check_invariants();
  }

  // The snapshot is the code-sorted view of the same contents.
  std::vector<Subproblem> sorted = legacy.entries();
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Subproblem& a, const Subproblem& b) {
                     return a.code < b.code;
                   });
  expect_same(pool.snapshot(), sorted, "snapshot");

  while (!legacy.empty()) {
    EXPECT_EQ(pool.pop(), legacy.pop()) << "drain diverged";
  }
  EXPECT_TRUE(pool.empty());
  pool.check_invariants();
}

TEST_P(PoolDiff, LargePoolRoundsAndClearRecyclingAreOperationIdentical) {
  // A bulk load of thousands of entries, rounds of top-ups and removals of
  // every flavor at that size, then clear() and a reload onto recycled
  // entries — all of it operation-identical to the seed pool, victim order
  // included.
  const SelectRule rule = GetParam();
  support::Rng rng(0xAB5EED + static_cast<std::uint64_t>(rule));
  ActivePool pool(rule);
  LegacyPool legacy(rule);

  // Continuous bounds: at this pool size the coarse pick(64) bounds breed
  // exact (depth, bound, code) duplicates, and the seed reference's
  // extraction order is unspecified across such twins (see
  // legacy_pool.hpp). Tie behavior is MixedOpStream's job.
  const auto push_batch = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      Subproblem p{random_code(rng, 10), rng.uniform()};
      legacy.push(p);
      pool.push(std::move(p));
    }
  };

  push_batch(2000);
  pool.check_invariants();
  EXPECT_EQ(pool.best_bound(), legacy.best_bound());
  pool.check_invariants();
  EXPECT_EQ(pool.best_bound(), legacy.best_bound());
  pool.check_invariants();

  // Steady-state rounds: top up, then remove in every flavor; the victims'
  // reported order must match the seed heap-array order exactly.
  for (int round = 0; round < 6; ++round) {
    push_batch(300);
    const double threshold = 0.6 + 0.4 * rng.uniform();
    expect_same(pool.prune_above(threshold),
                legacy.remove_if([threshold](const Subproblem& p) {
                  return p.bound >= threshold;
                }),
                "large prune_above");
    push_batch(200);
    std::vector<PathCode> regions;
    for (std::size_t i = 0; i < 2; ++i) regions.push_back(random_code(rng, 5));
    const auto covered = in_regions(regions);
    expect_same(pool.remove_if(covered), legacy.remove_if(covered),
                "large covered remove_if");
    const std::size_t k = 1 + rng.pick(32);
    expect_same(pool.extract_for_sharing(k), legacy.extract_for_sharing(k),
                "large extract_for_sharing");
    ASSERT_EQ(pool.size(), legacy.size());
    ASSERT_EQ(pool.best_bound(), legacy.best_bound());
    pool.check_invariants();
  }

  // Recycled restart: clear both, reload, and re-verify — entry recycling
  // must not perturb any observable.
  pool.clear();
  legacy.clear();
  EXPECT_TRUE(pool.empty());
  push_batch(1500);
  pool.check_invariants();
  while (!legacy.empty()) {
    EXPECT_EQ(pool.pop(), legacy.pop()) << "post-clear drain diverged";
  }
  EXPECT_TRUE(pool.empty());
  pool.check_invariants();
}

TEST_P(PoolDiff, TableCoveredSweepIsOperationIdentical) {
  // The worker's covered sweep: every push is covered-checked against the
  // table first, completions land in the table, and a sweep removes every
  // entry the table covers — the same victims in the same order as the seed.
  const SelectRule rule = GetParam();
  support::Rng rng(0xBEEF + static_cast<std::uint64_t>(rule));
  ActivePool pool(rule);
  LegacyPool legacy(rule);
  CodeSet table;
  const auto covered = [&table](const Subproblem& p) {
    return table.covered(p.code);
  };

  for (int step = 0; step < 8000; ++step) {
    const double dice = rng.uniform();
    if (pool.empty() || dice < 0.55) {
      Subproblem p{tree_code(rng, 10), static_cast<double>(rng.pick(64))};
      if (table.covered(p.code)) continue;  // the worker's push guard
      legacy.push(p);
      pool.push(std::move(p));
    } else if (dice < 0.75) {
      EXPECT_EQ(pool.pop(), legacy.pop());
    } else if (dice < 0.95) {
      // A "completion" lands in the table (local or via report).
      (void)table.insert(tree_code(rng, 8));
    } else {
      expect_same(pool.remove_if(covered), legacy.remove_if(covered),
                  "table covered sweep");
    }
    ASSERT_EQ(pool.size(), legacy.size());
  }
}

INSTANTIATE_TEST_SUITE_P(AllRules, PoolDiff,
                         ::testing::Values(SelectRule::kBestFirst,
                                           SelectRule::kDepthFirst,
                                           SelectRule::kBreadthFirst),
                         [](const auto& info) {
                           switch (info.param) {
                             case SelectRule::kBestFirst: return "BestFirst";
                             case SelectRule::kDepthFirst: return "DepthFirst";
                             case SelectRule::kBreadthFirst: return "BreadthFirst";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace ftbb::bnb
