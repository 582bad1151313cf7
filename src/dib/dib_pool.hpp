// The DIB baseline's pool of active tasks: the seed's flat vector. Pops and
// donations scan it, removal swaps with the back, and elimination is a
// stable left-to-right sweep. The visit order of eliminated tasks is
// observable through per-job accounting (node_finished / check_job
// cascades), and tests/dib_pool_diff_test.cpp pins every operation to a
// verbatim copy of the seed logic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "bnb/problem.hpp"

namespace ftbb::dib {

/// One pool entry: a subproblem and the local job it belongs to.
struct Task {
  bnb::Subproblem sub;
  std::uint32_t job = 0;
};

class DibPool {
 public:
  void push(Task task) { tasks_.push_back(std::move(task)); }
  [[nodiscard]] bool empty() const { return tasks_.empty(); }
  [[nodiscard]] std::size_t size() const { return tasks_.size(); }

  /// Removes and returns the task the DIB expansion loop selects: greatest
  /// depth, then lexicographically smallest code, then (for exact duplicate
  /// tasks) the lowest array position.
  Task pop_best();

  /// Removes and returns the donation pick: smallest depth, lowest array
  /// position among equal depths (codes are not compared).
  Task take_shallowest();

  /// Eliminates every task with bound >= `threshold`, visiting victims in
  /// ascending array order and compacting survivors stably. `on_victim`
  /// must not mutate the pool.
  void prune_at_least(double threshold,
                      const std::function<void(const Task&)>& on_victim);

  void clear() { tasks_.clear(); }

 private:
  /// Swap-with-back removal.
  Task remove_at(std::size_t i);

  std::vector<Task> tasks_;
};

}  // namespace ftbb::dib
