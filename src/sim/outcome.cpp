#include "sim/outcome.hpp"

#include <algorithm>
#include <cstring>

namespace ftbb::sim {

namespace {

/// Words of a record ahead of the code's words: hash and cost (two words
/// each), then the depth.
constexpr std::size_t kHeader = 5;
/// 1 KiB first, doubling to 64 KiB: a worker that expands a handful of codes
/// (the planetary storm's) holds one small block.
constexpr std::size_t kFirstBlock = 256;
constexpr std::size_t kMaxBlock = 16384;

template <typename T>
T load(const std::uint32_t* at) {
  T value;
  std::memcpy(&value, at, sizeof(value));
  return value;
}

std::uint64_t record_hash(const std::uint32_t* r) { return load<std::uint64_t>(r); }
double record_cost(const std::uint32_t* r) { return load<double>(r + 2); }
core::PathView record_code(const std::uint32_t* r) { return core::PathView(r + kHeader, r[4]); }

}  // namespace

void ExpansionLog::add(const core::PathCode& code, double cost) {
  const std::size_t need = kHeader + code.depth();
  if (blocks_.empty() || blocks_.back().cap - blocks_.back().used < need) {
    const std::size_t grown =
        blocks_.empty() ? kFirstBlock
                        : std::min<std::size_t>(2 * blocks_.back().cap, kMaxBlock);
    const std::size_t cap = std::max(need, grown);
    blocks_.push_back(Block{std::make_unique_for_overwrite<std::uint32_t[]>(cap), 0,
                            static_cast<std::uint32_t>(cap)});
  }
  Block& b = blocks_.back();
  std::uint32_t* r = b.words.get() + b.used;
  const std::uint64_t hash = code.hash();
  std::memcpy(r, &hash, sizeof(hash));
  std::memcpy(r + 2, &cost, sizeof(cost));
  r[4] = static_cast<std::uint32_t>(code.depth());
  std::memcpy(r + kHeader, code.view().words(), code.depth() * sizeof(std::uint32_t));
  b.used += static_cast<std::uint32_t>(need);
  ++count_;
}

void ExpansionLog::append_records(std::vector<const std::uint32_t*>& out) const {
  for (const Block& b : blocks_) {
    for (std::uint32_t pos = 0; pos < b.used;
         pos += static_cast<std::uint32_t>(kHeader) + b.words[pos + 4]) {
      out.push_back(b.words.get() + pos);
    }
  }
}

void RunOutcome::account_expansions(std::span<const ExpansionLog* const> logs) {
  std::vector<const std::uint32_t*> records;
  std::size_t noted = 0;
  for (const ExpansionLog* log : logs) noted += log->size();
  records.reserve(noted);
  for (const ExpansionLog* log : logs) log->append_records(records);
  std::sort(records.begin(), records.end(),
            [](const std::uint32_t* a, const std::uint32_t* b) {
              const std::uint64_t ha = record_hash(a);
              const std::uint64_t hb = record_hash(b);
              if (ha != hb) return ha < hb;
              return record_code(a) < record_code(b);
            });
  // Sorting by hash grouped the equal codes cheaply. The records of every
  // code expanded more than once move to the front, and only those are put
  // in code order, where the cost of the repeats is summed.
  std::size_t repeated = 0;
  unique_expanded = 0;
  for (std::size_t i = 0; i < records.size();) {
    std::size_t j = i + 1;
    while (j < records.size() && record_code(records[j]) == record_code(records[i])) ++j;
    ++unique_expanded;
    if (j - i > 1) {
      for (std::size_t k = i; k < j; ++k) records[repeated++] = records[k];
    }
    i = j;
  }
  std::sort(records.begin(), records.begin() + repeated,
            [](const std::uint32_t* a, const std::uint32_t* b) {
              return record_code(a) < record_code(b);
            });
  redundant_cost = 0.0;
  for (std::size_t i = 0; i < repeated;) {
    std::size_t j = i + 1;
    while (j < repeated && record_code(records[j]) == record_code(records[i])) ++j;
    redundant_cost += static_cast<double>(j - i - 1) * record_cost(records[i]);
    i = j;
  }
  total_expanded = records.size();
  redundant_expansions = total_expanded - unique_expanded;
  work[core::WorkItem::kRedundantExpansions] = redundant_expansions;
  work.redundant_seconds = redundant_cost;
}

}  // namespace ftbb::sim
