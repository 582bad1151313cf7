#include "sim/outcome.hpp"

#include <algorithm>

namespace ftbb::sim {

void ExpansionLog::append(const core::PathCode& code, std::uint8_t flags, double cost) {
  if (!state_) state_ = std::make_unique<State>();
  State& s = *state_;
  const std::size_t depth = code.depth();
  const std::size_t prefix = core::common_prefix(code, s.last);
  // At most: the flag, two 5-byte varints, 5 bytes a word and the cost.
  const std::size_t need = 1 + 10 + 5 * (depth - prefix) + 8;
  if (s.blocks.empty() || s.blocks.back().capacity() - s.blocks.back().size() < need) {
    // 256 B first, doubling to 64 KiB: a worker that expands a handful of
    // codes (the planetary storm's) holds one small block.
    const std::size_t grown =
        s.blocks.empty() ? 256 : std::min<std::size_t>(2 * s.blocks.back().capacity(), 65536);
    s.blocks.emplace_back().reserve(std::max(need, grown));
  }
  std::vector<std::uint8_t>& block = s.blocks.back();
  const std::size_t at = block.size();
  block.resize(at + need);  // within the reserve: the bytes never move
  std::uint8_t* const record = block.data() + at;
  record[0] = flags;
  std::uint8_t* out = support::put_varint(record + 1, depth);
  out = support::put_varint(out, prefix);
  for (std::size_t i = prefix; i < depth; ++i) out = support::put_varint(out, code.word(i));
  if ((flags & kExpanded) != 0) out = support::put_f64(out, cost);
  block.resize(static_cast<std::size_t>(out - block.data()));
  s.last = code;
  s.open = (flags & kExpanded) != 0 ? record : nullptr;
  s.expansions += flags & kExpanded;
  ++s.records;
}

void ExpansionLog::complete(const core::PathCode& code) {
  if (state_ && state_->open != nullptr && code == state_->last) {
    *state_->open |= kCompleted;
    state_->open = nullptr;
    return;
  }
  append(code, kCompleted, 0.0);
}

void ExpansionLog::mark() {
  if (!state_) return;
  state_->open = nullptr;
  state_->marked = state_->records;
}

void RunOutcome::account_expansions(std::span<const ExpansionLog* const> logs) {
  // Every expansion's hash, sorted. Equal codes share a hash, so a hash met
  // once is a code expanded once.
  std::vector<std::uint64_t> hashes;
  std::size_t noted = 0;
  for (const ExpansionLog* log : logs) noted += log->size();
  hashes.reserve(noted);
  for (const ExpansionLog* log : logs) {
    log->decode([&hashes](const ExpansionLog::Record& r) {
      if (r.expanded) hashes.push_back(r.code.hash());
    });
  }
  std::sort(hashes.begin(), hashes.end());
  std::vector<std::uint64_t> repeated;  // the hashes met more than once
  for (std::size_t i = 1; i < hashes.size(); ++i) {
    if (hashes[i] == hashes[i - 1] && (repeated.empty() || repeated.back() != hashes[i])) {
      repeated.push_back(hashes[i]);
    }
  }
  total_expanded = hashes.size();
  const auto distinct =
      static_cast<std::size_t>(std::unique(hashes.begin(), hashes.end()) - hashes.begin());
  hashes = {};
  // One copy of each code behind a repeated hash, with its expansion count
  // (a code whose hash another code shares gets its own copy). In code
  // order, each is one unique expansion and the cost of its repeats is
  // summed.
  constexpr std::size_t kNone = ~std::size_t{0};
  struct Repeat {
    std::size_t at, depth;  // the code: `depth` words from words[at]
    std::size_t count;
    double cost;
    std::size_t next;  // the next code with the same hash, or kNone
  };
  std::vector<std::uint32_t> words;
  std::vector<Repeat> repeats;
  repeats.reserve(repeated.size());
  const auto view = [&words](const Repeat& r) {
    return core::PathView(words.data() + r.at, r.depth);
  };
  std::vector<std::size_t> first(repeated.size(), kNone);  // per repeated hash
  for (const ExpansionLog* log : logs) {
    if (repeated.empty()) break;
    log->decode([&](const ExpansionLog::Record& r) {
      if (!r.expanded) return;
      const std::uint64_t hash = r.code.hash();
      const auto it = std::lower_bound(repeated.begin(), repeated.end(), hash);
      if (it == repeated.end() || *it != hash) return;
      std::size_t* link = &first[static_cast<std::size_t>(it - repeated.begin())];
      while (*link != kNone && (view(repeats[*link]) <=> r.code) != 0) {
        link = &repeats[*link].next;
      }
      if (*link != kNone) {
        ++repeats[*link].count;
        return;
      }
      *link = repeats.size();
      repeats.push_back(Repeat{words.size(), r.code.depth(), 1, r.cost, kNone});
      words.insert(words.end(), r.code.words(), r.code.words() + r.code.depth());
    });
  }
  std::sort(repeats.begin(), repeats.end(),
            [&view](const Repeat& a, const Repeat& b) { return view(a) < view(b); });
  unique_expanded = distinct - repeated.size() + repeats.size();
  redundant_cost = 0.0;
  for (const Repeat& r : repeats) {
    if (r.count > 1) redundant_cost += static_cast<double>(r.count - 1) * r.cost;
  }
  redundant_expansions = total_expanded - unique_expanded;
  work[core::WorkItem::kRedundantExpansions] = redundant_expansions;
  work.redundant_seconds = redundant_cost;
}

}  // namespace ftbb::sim
