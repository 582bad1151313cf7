// The pool of active problems with the paper's Select rules (Section 2c).
//
// A binary heap over a contiguous array of (bound, depth, entry*) slots: the
// selection key is cached inline so sift comparisons stay cache-local, and
// the stable Entry allocation is dereferenced only to break exact ties by
// path code. Every comparison reaches the same verdict as the seed's value
// heap, so the array evolves bit-identically to it. Pop order is the rule's
// total order; removals scan the array once, report their victims in
// heap-array order and compact the survivors in place before re-heapifying,
// exactly like the seed. The worker's completion pipeline (report batching,
// contraction charges, last-local-completion tracking) observably depends on
// that victim order, so golden ScenarioReport fingerprints hold.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "bnb/problem.hpp"

namespace ftbb::bnb {

/// Selection heuristics for the next problem to branch from.
enum class SelectRule {
  kBestFirst,    // smallest lower bound first
  kDepthFirst,   // deepest first (LIFO flavor)
  kBreadthFirst  // shallowest first (FIFO flavor)
};

[[nodiscard]] const char* to_string(SelectRule rule);

/// Pool-maintenance work counters for the cost model (core::WorkLedger):
/// pure observation of what the pool already does — bumping them changes no
/// answer, no order, no layout. Per-worker pool operations run in the
/// kernel's total event order, so these are deterministic across thread
/// counts.
struct PoolMaintStats {
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::uint64_t sweep_entries_scanned = 0;  // prune/remove_if visits
  std::uint64_t share_extracted = 0;

  void add(const PoolMaintStats& other) {
    pushes += other.pushes;
    pops += other.pops;
    sweep_entries_scanned += other.sweep_entries_scanned;
    share_extracted += other.share_extracted;
  }
};

class ActivePool {
 public:
  explicit ActivePool(SelectRule rule = SelectRule::kBestFirst);

  ActivePool(const ActivePool&) = delete;
  ActivePool& operator=(const ActivePool&) = delete;
  ActivePool(ActivePool&&) = default;
  ActivePool& operator=(ActivePool&&) = default;

  void push(Subproblem p);
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Pops the problem the selection rule ranks first.
  Subproblem pop();

  /// Smallest bound present (kInfinity when empty).
  [[nodiscard]] double best_bound() const;

  /// Removes every entry whose bound is >= `threshold` (elimination after an
  /// incumbent improvement); returns them in heap-array order.
  std::vector<Subproblem> prune_above(double threshold);

  /// Removes every entry matching `victim`; returns them in heap-array order.
  std::vector<Subproblem> remove_if(const std::function<bool(const Subproblem&)>& victim);

  /// Extracts up to `k` problems for a work grant, preferring the
  /// shallowest entries: shallow subproblems represent the largest subtrees
  /// and are the classic choice for work transfer. Ranked by (depth, bound,
  /// code), exact twins by insertion order; returned in heap-array order.
  std::vector<Subproblem> extract_for_sharing(std::size_t k);

  /// Order-canonical snapshot of the pool contents, sorted by path code.
  /// Deliberately the only way to enumerate entries, so no caller can couple
  /// to the internal layout.
  [[nodiscard]] std::vector<Subproblem> snapshot() const;

  [[nodiscard]] SelectRule rule() const { return rule_; }

  /// Cumulative maintenance-work counters (never reset by clear(); a worker
  /// incarnation owns its pool, so the counters are per-incarnation).
  [[nodiscard]] const PoolMaintStats& maintenance() const { return maint_; }

  void clear();

  /// Deep structural validation for tests: heap property, cached keys and
  /// entry ownership all consistent. Aborts on violation.
  void check_invariants() const;

 private:
  struct Entry {
    Subproblem item;
    std::uint64_t seq = 0;          // insertion order; settles exact twins
    std::uint32_t arena_pos = 0;    // position in arena_ (ownership store)
  };

  /// One heap-array element: the selection key cached inline (sift
  /// comparisons read contiguous memory; only exact bound+depth ties deref
  /// the entry for the path-code tiebreak) plus the entry it stands for.
  struct HeapSlot {
    double bound = 0.0;
    std::uint32_t depth = 0;
    Entry* e = nullptr;
  };

  [[nodiscard]] bool ranks_before(const Subproblem& a, const Subproblem& b) const;
  /// Same verdicts as ranks_before on the corresponding items, but reads the
  /// cached keys and only dereferences entries on exact (bound, depth) ties.
  [[nodiscard]] bool slot_ranks_before(const HeapSlot& a, const HeapSlot& b) const;
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void rebuild();

  /// Removes every slot matching `victim` in one pass and returns the items
  /// in heap-array order, compacting and re-heapifying exactly like the
  /// seed's remove_if.
  template <typename Victim>
  std::vector<Subproblem> remove_where(const Victim& victim);

  Entry* acquire(Subproblem item);
  void release(Entry* e);
  void destroy_entry(Entry* e);

  SelectRule rule_;
  std::vector<HeapSlot> heap_;  // heap_[0] = next pop
  std::vector<std::unique_ptr<Entry>> arena_;  // owns every live + free entry
  std::vector<Entry*> free_;  // entry recycling, caps churn
  std::uint64_t next_seq_ = 0;
  PoolMaintStats maint_;
};

}  // namespace ftbb::bnb
