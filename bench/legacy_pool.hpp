// The seed flat-heap ActivePool, preserved verbatim as a reference model.
//
// bench_pool measures ActivePool against it, and the differential test
// (tests/pool_diff_test.cpp) asserts the two agree operation-for-operation —
// including the heap-array order in which removals report their victims,
// which the worker's completion pipeline observably depends on.
//
// Known tie subtlety: extract_for_sharing here uses an unstable std::sort
// keyed (depth, bound, code). When two entries carry an identical
// (code, bound) pair — possible via redundant grants — and the k boundary
// falls between them, which copy is taken is unspecified by this reference;
// ActivePool takes the earlier-inserted one. The copies are value-identical,
// so every observable downstream of the worker is unaffected either way;
// only this reference's internal layout could differ, and only on a
// standard library whose sort orders the tie differently.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "bnb/pool.hpp"
#include "bnb/problem.hpp"
#include "support/check.hpp"

namespace ftbb::bench {

/// Binary-heap pool ordered by the configured selection rule — the seed
/// implementation: O(n) best_bound, O(n)+rebuild per removal flavor, full
/// sort per extraction.
class LegacyPool {
 public:
  explicit LegacyPool(bnb::SelectRule rule = bnb::SelectRule::kBestFirst)
      : rule_(rule) {}

  void push(bnb::Subproblem p) {
    entries_.push_back(std::move(p));
    sift_up(entries_.size() - 1);
  }

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  void clear() { entries_.clear(); }

  bnb::Subproblem pop() {
    FTBB_CHECK_MSG(!entries_.empty(), "pop from empty pool");
    bnb::Subproblem top = std::move(entries_.front());
    entries_.front() = std::move(entries_.back());
    entries_.pop_back();
    if (!entries_.empty()) sift_down(0);
    return top;
  }

  [[nodiscard]] double best_bound() const {
    double best = bnb::kInfinity;
    for (const bnb::Subproblem& p : entries_) best = std::min(best, p.bound);
    return best;
  }

  std::vector<bnb::Subproblem> remove_if(
      const std::function<bool(const bnb::Subproblem&)>& victim) {
    std::vector<bnb::Subproblem> removed;
    std::size_t write = 0;
    for (std::size_t read = 0; read < entries_.size(); ++read) {
      if (victim(entries_[read])) {
        removed.push_back(std::move(entries_[read]));
      } else {
        if (write != read) entries_[write] = std::move(entries_[read]);
        ++write;
      }
    }
    if (!removed.empty()) {
      entries_.resize(write);
      rebuild();
    }
    return removed;
  }

  std::vector<bnb::Subproblem> extract_for_sharing(std::size_t k) {
    k = std::min(k, entries_.size());
    if (k == 0) return {};
    std::vector<std::size_t> idx(entries_.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(), [this](std::size_t a, std::size_t b) {
      const bnb::Subproblem& pa = entries_[a];
      const bnb::Subproblem& pb = entries_[b];
      if (pa.code.depth() != pb.code.depth()) return pa.code.depth() < pb.code.depth();
      if (pa.bound != pb.bound) return pa.bound < pb.bound;
      return pa.code < pb.code;
    });
    std::vector<bool> take(entries_.size(), false);
    for (std::size_t i = 0; i < k; ++i) take[idx[i]] = true;
    std::vector<bnb::Subproblem> out;
    out.reserve(k);
    std::vector<bnb::Subproblem> kept;
    kept.reserve(entries_.size() - k);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (take[i]) {
        out.push_back(std::move(entries_[i]));
      } else {
        kept.push_back(std::move(entries_[i]));
      }
    }
    entries_ = std::move(kept);
    rebuild();
    return out;
  }

  [[nodiscard]] const std::vector<bnb::Subproblem>& entries() const {
    return entries_;
  }

 private:
  [[nodiscard]] bool ranks_before(const bnb::Subproblem& a,
                                  const bnb::Subproblem& b) const {
    switch (rule_) {
      case bnb::SelectRule::kBestFirst:
        if (a.bound != b.bound) return a.bound < b.bound;
        if (a.code.depth() != b.code.depth()) return a.code.depth() > b.code.depth();
        break;
      case bnb::SelectRule::kDepthFirst:
        if (a.code.depth() != b.code.depth()) return a.code.depth() > b.code.depth();
        if (a.bound != b.bound) return a.bound < b.bound;
        break;
      case bnb::SelectRule::kBreadthFirst:
        if (a.code.depth() != b.code.depth()) return a.code.depth() < b.code.depth();
        if (a.bound != b.bound) return a.bound < b.bound;
        break;
    }
    return a.code < b.code;
  }

  void sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!ranks_before(entries_[i], entries_[parent])) break;
      std::swap(entries_[i], entries_[parent]);
      i = parent;
    }
  }

  void sift_down(std::size_t i) {
    const std::size_t n = entries_.size();
    while (true) {
      std::size_t best = i;
      const std::size_t l = 2 * i + 1;
      const std::size_t r = 2 * i + 2;
      if (l < n && ranks_before(entries_[l], entries_[best])) best = l;
      if (r < n && ranks_before(entries_[r], entries_[best])) best = r;
      if (best == i) return;
      std::swap(entries_[i], entries_[best]);
      i = best;
    }
  }

  void rebuild() {
    if (entries_.size() < 2) return;
    for (std::size_t i = entries_.size() / 2; i-- > 0;) sift_down(i);
  }

  bnb::SelectRule rule_;
  std::vector<bnb::Subproblem> entries_;
};

}  // namespace ftbb::bench
