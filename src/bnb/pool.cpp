#include "bnb/pool.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace ftbb::bnb {

const char* to_string(SelectRule rule) {
  switch (rule) {
    case SelectRule::kBestFirst:
      return "best-first";
    case SelectRule::kDepthFirst:
      return "depth-first";
    case SelectRule::kBreadthFirst:
      return "breadth-first";
  }
  return "?";
}

ActivePool::ActivePool(SelectRule rule) : rule_(rule) {}

bool ActivePool::ranks_before(const Subproblem& a, const Subproblem& b) const {
  switch (rule_) {
    case SelectRule::kBestFirst:
      if (a.bound != b.bound) return a.bound < b.bound;
      // Among equal bounds prefer the deeper problem: it is closer to a
      // feasible solution, which tightens the incumbent sooner.
      if (a.code.depth() != b.code.depth()) return a.code.depth() > b.code.depth();
      break;
    case SelectRule::kDepthFirst:
      if (a.code.depth() != b.code.depth()) return a.code.depth() > b.code.depth();
      if (a.bound != b.bound) return a.bound < b.bound;
      break;
    case SelectRule::kBreadthFirst:
      if (a.code.depth() != b.code.depth()) return a.code.depth() < b.code.depth();
      if (a.bound != b.bound) return a.bound < b.bound;
      break;
  }
  return a.code < b.code;
}

// ---------------------------------------------------------------------------
// Entry lifecycle
// ---------------------------------------------------------------------------

ActivePool::Entry* ActivePool::acquire(Subproblem item) {
  Entry* e = nullptr;
  if (!free_.empty()) {
    e = free_.back();
    free_.pop_back();
    // Hide the cold-entry miss of the NEXT acquire behind this push's work —
    // bulk refills are memory-bound on exactly this line.
    if (!free_.empty()) __builtin_prefetch(free_.back());
  } else {
    arena_.push_back(std::make_unique<Entry>());
    e = arena_.back().get();
    e->arena_pos = static_cast<std::uint32_t>(arena_.size() - 1);
  }
  if (e->item.code.is_root()) {
    // Fresh entry, or recycled after its payload was moved out (pop): the
    // destination holds no buffer, so stealing the donor's is free.
    e->item = std::move(item);
  } else {
    // Recycled with a stale payload (clear()): copy-assign reuses the held
    // buffer's capacity and lets the donor free its just-allocated one — a
    // hot, allocator-top free instead of a cold free into a random bin,
    // which keeps a refill loop's allocation stream on the fast path.
    e->item = item;
  }
  e->seq = ++next_seq_;
  return e;
}

void ActivePool::destroy_entry(Entry* e) {
  // Swap-remove from the arena, which owns it.
  const std::uint32_t pos = e->arena_pos;
  if (pos + 1 != arena_.size()) {
    arena_[pos] = std::move(arena_.back());
    arena_[pos]->arena_pos = pos;
  }
  arena_.pop_back();
}

void ActivePool::release(Entry* e) {
  // Cap the recycle list so a drained peak-sized pool does not pin its
  // high-water allocation count forever; past the cap the entry is
  // destroyed.
  if (free_.size() < std::max<std::size_t>(1024, heap_.size())) {
    free_.push_back(e);
  } else {
    destroy_entry(e);
  }
}

// ---------------------------------------------------------------------------
// Core heap operations
// ---------------------------------------------------------------------------

void ActivePool::push(Subproblem p) {
  ++maint_.pushes;
  Entry* raw = acquire(std::move(p));
  heap_.push_back(HeapSlot{raw->item.bound,
                           static_cast<std::uint32_t>(raw->item.code.depth()),
                           raw});
  sift_up(heap_.size() - 1);
}

Subproblem ActivePool::pop() {
  FTBB_CHECK_MSG(!heap_.empty(), "pop from empty pool");
  ++maint_.pops;
  Entry* top = heap_.front().e;
  if (heap_.size() > 1) {
    heap_.front() = heap_.back();
  }
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  Subproblem out = std::move(top->item);
  release(top);
  return out;
}

double ActivePool::best_bound() const {
  double best = kInfinity;
  for (const HeapSlot& s : heap_) best = std::min(best, s.bound);
  return best;
}

// ---------------------------------------------------------------------------
// Removal flavors
// ---------------------------------------------------------------------------

template <typename Victim>
std::vector<Subproblem> ActivePool::remove_where(const Victim& victim) {
  std::vector<Subproblem> out;
  std::size_t write = 0;
  for (std::size_t read = 0; read < heap_.size(); ++read) {
    const HeapSlot s = heap_[read];
    if (victim(s)) {
      out.push_back(std::move(s.e->item));
      release(s.e);
    } else {
      heap_[write++] = s;
    }
  }
  if (out.empty()) return out;
  heap_.resize(write);
  rebuild();
  return out;
}

std::vector<Subproblem> ActivePool::prune_above(double threshold) {
  maint_.sweep_entries_scanned += heap_.size();
  return remove_where([threshold](const HeapSlot& s) { return s.bound >= threshold; });
}

std::vector<Subproblem> ActivePool::remove_if(
    const std::function<bool(const Subproblem&)>& victim) {
  maint_.sweep_entries_scanned += heap_.size();
  return remove_where([&victim](const HeapSlot& s) { return victim(s.e->item); });
}

std::vector<Subproblem> ActivePool::extract_for_sharing(std::size_t k) {
  k = std::min(k, heap_.size());
  if (k == 0) return {};
  // The seed's share order, made total by insertion order.
  const auto shallower = [](const Entry* a, const Entry* b) {
    if (a->item.code.depth() != b->item.code.depth()) {
      return a->item.code.depth() < b->item.code.depth();
    }
    if (a->item.bound != b->item.bound) return a->item.bound < b->item.bound;
    if (a->item.code != b->item.code) return a->item.code < b->item.code;
    return a->seq < b->seq;
  };
  std::vector<const Entry*> order;
  order.reserve(heap_.size());
  for (const HeapSlot& s : heap_) order.push_back(s.e);
  std::nth_element(order.begin(), order.begin() + (k - 1), order.end(), shallower);
  // A copy: the sweep moves the k-th entry's item out when it reaches it.
  const Entry last = *order[k - 1];
  maint_.share_extracted += k;
  return remove_where(
      [&](const HeapSlot& s) { return !shallower(&last, s.e); });
}

std::vector<Subproblem> ActivePool::snapshot() const {
  std::vector<const Entry*> order;
  order.reserve(heap_.size());
  for (const HeapSlot& s : heap_) order.push_back(s.e);
  std::sort(order.begin(), order.end(), [](const Entry* a, const Entry* b) {
    if (a->item.code != b->item.code) return a->item.code < b->item.code;
    return a->seq < b->seq;
  });
  std::vector<Subproblem> out;
  out.reserve(order.size());
  for (const Entry* e : order) out.push_back(e->item);
  return out;
}

void ActivePool::clear() {
  // Recycle the entry allocations; the stale payloads they keep holding are
  // reused as buffer capacity by acquire() (see there). The cap is taken
  // before the heap empties — releasing against the shrinking size would
  // destroy almost everything.
  const std::size_t cap = std::max<std::size_t>(1024, heap_.size());
  // Recycle back-to-front: the LIFO free list then hands entries back in
  // forward heap-array (≈ allocation) order, a stream the hardware
  // prefetcher can follow during the next bulk load.
  for (std::size_t i = heap_.size(); i-- > 0;) {
    Entry* e = heap_[i].e;
    if (free_.size() < cap) {
      free_.push_back(e);
    } else {
      destroy_entry(e);
    }
  }
  heap_.clear();
}

// ---------------------------------------------------------------------------
// Sift machinery — pointer swaps, but the exact comparison sequence of the
// historical Subproblem heap, so the array layout stays bit-identical.
// ---------------------------------------------------------------------------

bool ActivePool::slot_ranks_before(const HeapSlot& a, const HeapSlot& b) const {
  switch (rule_) {
    case SelectRule::kBestFirst:
      if (a.bound != b.bound) return a.bound < b.bound;
      if (a.depth != b.depth) return a.depth > b.depth;
      break;
    case SelectRule::kDepthFirst:
      if (a.depth != b.depth) return a.depth > b.depth;
      if (a.bound != b.bound) return a.bound < b.bound;
      break;
    case SelectRule::kBreadthFirst:
      if (a.depth != b.depth) return a.depth < b.depth;
      if (a.bound != b.bound) return a.bound < b.bound;
      break;
  }
  return a.e->item.code < b.e->item.code;
}

void ActivePool::sift_up(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!slot_ranks_before(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void ActivePool::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t best = i;
    const std::size_t l = 2 * i + 1;
    const std::size_t r = 2 * i + 2;
    if (l < n && slot_ranks_before(heap_[l], heap_[best])) best = l;
    if (r < n && slot_ranks_before(heap_[r], heap_[best])) best = r;
    if (best == i) return;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

void ActivePool::rebuild() {
  if (heap_.size() < 2) return;
  for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

void ActivePool::check_invariants() const {
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const Entry* e = heap_[i].e;
    FTBB_CHECK(e != nullptr);
    FTBB_CHECK(arena_[e->arena_pos].get() == e);
    // The cached slot key must mirror the item (sift correctness hinges on
    // it), and the cached-key comparator must agree with the item one.
    FTBB_CHECK(heap_[i].bound == e->item.bound);
    FTBB_CHECK(heap_[i].depth == e->item.code.depth());
    if (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      FTBB_CHECK_MSG(!slot_ranks_before(heap_[i], heap_[parent]),
                     "heap property violated");
      FTBB_CHECK(slot_ranks_before(heap_[i], heap_[parent]) ==
                 ranks_before(e->item, heap_[parent].e->item));
    }
  }
}

}  // namespace ftbb::bnb
