#include "dib/dib_pool.hpp"

#include "support/check.hpp"

namespace ftbb::dib {

Task DibPool::remove_at(std::size_t i) {
  Task out = std::move(tasks_[i]);
  if (i + 1 != tasks_.size()) tasks_[i] = std::move(tasks_.back());
  tasks_.pop_back();
  return out;
}

Task DibPool::pop_best() {
  FTBB_CHECK(!tasks_.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < tasks_.size(); ++i) {
    const core::PathCode& a = tasks_[i].sub.code;
    const core::PathCode& b = tasks_[best].sub.code;
    if (a.depth() > b.depth() || (a.depth() == b.depth() && a < b)) best = i;
  }
  return remove_at(best);
}

Task DibPool::take_shallowest() {
  FTBB_CHECK(!tasks_.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < tasks_.size(); ++i) {
    if (tasks_[i].sub.code.depth() < tasks_[best].sub.code.depth()) best = i;
  }
  return remove_at(best);
}

void DibPool::prune_at_least(double threshold,
                             const std::function<void(const Task&)>& on_victim) {
  std::size_t write = 0;
  for (std::size_t read = 0; read < tasks_.size(); ++read) {
    if (tasks_[read].sub.bound >= threshold) {
      on_victim(tasks_[read]);
    } else {
      if (write != read) tasks_[write] = std::move(tasks_[read]);
      ++write;
    }
  }
  tasks_.resize(write);
}

}  // namespace ftbb::dib
