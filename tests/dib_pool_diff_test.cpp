// Differential proof that DibPool stays observationally identical to the
// seed linear pool (src/dib/dib.cpp's std::vector<Task> with O(n) scans).
// The reference below preserves the seed logic verbatim — the
// first-index-wins deepest scan of pop_task, the strict-decrease shallowest
// scan of the donation pick, the stable left-to-right elimination sweep —
// and randomized mixed operation streams assert operation-for-operation
// identity: same popped tasks, same donation choices, same elimination
// victims in the same visit order.
#include <gtest/gtest.h>

#include <vector>

#include "dib/dib_pool.hpp"
#include "support/rng.hpp"

namespace ftbb::dib {
namespace {

using core::PathCode;

bool same_task(const Task& a, const Task& b) {
  return a.sub.code == b.sub.code && a.sub.bound == b.sub.bound &&
         a.job == b.job;
}

/// The seed implementation, verbatim (vector layout evolves by push_back,
/// swap-with-back removal, and stable compaction).
class ReferencePool {
 public:
  void push(Task t) { pool_.push_back(std::move(t)); }
  [[nodiscard]] bool empty() const { return pool_.empty(); }
  [[nodiscard]] std::size_t size() const { return pool_.size(); }

  Task pop_best() {
    std::size_t best_i = 0;
    for (std::size_t i = 1; i < pool_.size(); ++i) {
      const auto& a = pool_[i].sub;
      const auto& b = pool_[best_i].sub;
      if (a.code.depth() > b.code.depth() ||
          (a.code.depth() == b.code.depth() && a.code < b.code)) {
        best_i = i;
      }
    }
    return remove_at(best_i);
  }

  Task take_shallowest() {
    std::size_t best_i = 0;
    for (std::size_t i = 1; i < pool_.size(); ++i) {
      if (pool_[i].sub.code.depth() < pool_[best_i].sub.code.depth()) {
        best_i = i;
      }
    }
    return remove_at(best_i);
  }

  void prune_at_least(double threshold,
                      const std::function<void(const Task&)>& on_victim) {
    std::size_t write = 0;
    for (std::size_t read = 0; read < pool_.size(); ++read) {
      if (pool_[read].sub.bound >= threshold) {
        on_victim(pool_[read]);
      } else {
        if (write != read) pool_[write] = std::move(pool_[read]);
        ++write;
      }
    }
    pool_.resize(write);
  }

  void clear() { pool_.clear(); }

 private:
  Task remove_at(std::size_t i) {
    Task t = std::move(pool_[i]);
    pool_[i] = std::move(pool_.back());
    pool_.pop_back();
    return t;
  }

  std::vector<Task> pool_;
};

/// Random code whose depth and branches come from the stream; sibling codes
/// at equal depth and occasional duplicates exercise every tie-break.
PathCode random_code(support::Rng& rng) {
  PathCode code = PathCode::root();
  const std::size_t depth = rng.pick(10);
  for (std::size_t d = 0; d < depth; ++d) {
    code = code.child(static_cast<std::uint32_t>(rng.pick(4)), rng.chance(0.5));
  }
  return code;
}

Task random_task(support::Rng& rng) {
  Task t;
  t.sub.code = random_code(rng);
  t.sub.bound = static_cast<double>(rng.pick(50));  // coarse: bound collisions
  t.job = static_cast<std::uint32_t>(rng.pick(6));
  return t;
}

void run_stream(std::uint64_t seed, std::size_t ops) {
  support::Rng rng(seed);
  DibPool indexed;
  ReferencePool reference;

  for (std::size_t op = 0; op < ops; ++op) {
    ASSERT_EQ(indexed.size(), reference.size());
    const double dice = rng.uniform();
    if (indexed.empty() || dice < 0.45) {
      // Burst pushes keep the pool populated enough for interesting scans.
      const std::size_t burst = 1 + rng.pick(4);
      for (std::size_t i = 0; i < burst; ++i) {
        Task t = random_task(rng);
        indexed.push(t);
        reference.push(t);
      }
    } else if (dice < 0.70) {
      const Task a = indexed.pop_best();
      const Task b = reference.pop_best();
      EXPECT_TRUE(same_task(a, b))
          << "pop diverged at op " << op << " seed " << seed;
    } else if (dice < 0.82) {
      const Task a = indexed.take_shallowest();
      const Task b = reference.take_shallowest();
      EXPECT_TRUE(same_task(a, b))
          << "donation pick diverged at op " << op << " seed " << seed;
    } else if (dice < 0.97) {
      const double threshold = static_cast<double>(rng.pick(50));
      std::vector<Task> victims_a;
      std::vector<Task> victims_b;
      indexed.prune_at_least(
          threshold, [&](const Task& t) { victims_a.push_back(t); });
      reference.prune_at_least(
          threshold, [&](const Task& t) { victims_b.push_back(t); });
      ASSERT_EQ(victims_a.size(), victims_b.size())
          << "victim count diverged at op " << op << " seed " << seed;
      for (std::size_t i = 0; i < victims_a.size(); ++i) {
        EXPECT_TRUE(same_task(victims_a[i], victims_b[i]))
            << "victim order diverged at op " << op << " index " << i
            << " seed " << seed;
      }
    } else {
      indexed.clear();
      reference.clear();
    }
  }
  // Drain both pools; pop order must agree to the last task.
  while (!indexed.empty()) {
    const Task a = indexed.pop_best();
    const Task b = reference.pop_best();
    EXPECT_TRUE(same_task(a, b)) << "drain diverged, seed " << seed;
  }
  EXPECT_TRUE(reference.empty());
}

TEST(DibPoolDiff, RandomizedStreamsMatchSeedBehavior) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 23ULL, 101ULL, 999ULL}) {
    run_stream(seed, 2000);
  }
}

TEST(DibPoolDiff, DuplicateTasksResolveLikeTheSeedScan) {
  // Exact duplicates (same code, bound, job) — the rarest tie class; the
  // seed scans kept the first array index, and the indexed pool must too,
  // including after swap-with-back removals have permuted the array.
  support::Rng rng(5);
  DibPool indexed;
  ReferencePool reference;
  Task dup = random_task(rng);
  for (int i = 0; i < 6; ++i) {
    indexed.push(dup);
    reference.push(dup);
    Task other = random_task(rng);
    indexed.push(other);
    reference.push(other);
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(same_task(indexed.pop_best(), reference.pop_best()));
    EXPECT_TRUE(same_task(indexed.take_shallowest(), reference.take_shallowest()));
  }
  while (!indexed.empty()) {
    EXPECT_TRUE(same_task(indexed.pop_best(), reference.pop_best()));
  }
}

TEST(DibPoolDiff, NoVictimPruneIsANoOp) {
  support::Rng rng(9);
  DibPool pool;
  for (int i = 0; i < 100; ++i) pool.push(random_task(rng));
  std::size_t victims = 0;
  pool.prune_at_least(1e9, [&](const Task&) { ++victims; });
  EXPECT_EQ(victims, 0u);
  EXPECT_EQ(pool.size(), 100u);
}

}  // namespace
}  // namespace ftbb::dib
