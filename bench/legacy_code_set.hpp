// The completion table as a pointer trie, the form it had before the table
// became a vector of front-coded chunks (src/core/code_set.hpp). Kept as the
// differential oracle of tests/code_set_diff_test.cpp and as the baseline
// rows of bench_micro_codes: the InsertResults and trie_nodes() it reports
// are the counts the simulator charges, and the chunked table must match
// them exactly. Only its list interface moved to the front-coded CodeList:
// merges read each code's shared prefix off the list's records, and the
// export appends each leaf with the depth of the node where the DFS turned.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/code_list.hpp"
#include "core/path_code.hpp"
#include "support/bytes.hpp"
#include "support/check.hpp"

namespace ftbb::bench {

class LegacyCodeSet {
 public:
  static constexpr std::uint32_t kNoVar = 0xffffffffu;

  /// Outcome of an insert, with the work performed — the simulator charges
  /// list-contraction time proportional to `nodes_walked + merges`.
  ///
  /// `nodes_walked` counts the *modeled* per-code walk the simulator
  /// charges: the trie nodes a root-to-cover walk of each code visits. With
  /// the worker's per-gossip trie_nodes() charge it makes up
  /// WorkItem::kContractionNodes. It is not host work: insert_all() skips
  /// most of that walk on the host and still reports it in full.
  struct InsertResult {
    bool newly_covered = false;  // false when the code was already covered
    std::uint32_t nodes_walked = 0;
    std::uint32_t merges = 0;  // sibling-pair contractions triggered
  };

  LegacyCodeSet() { clear(); }

  /// Records `code` as completed; contracts upward. Idempotent. Takes a
  /// view (a core::PathCode converts implicitly): the walk only reads steps.
  InsertResult insert(core::PathView code);

  /// Inserts every code of a report/table list in order; returns summed
  /// stats and whether anything changed. Each code resumes the trie walk at
  /// its common prefix with the previous code (whose path nodes are kept on
  /// a stack), so a DFS-ordered gossip enters each trie node on its paths
  /// once rather than once per code below it, and codes under the previous
  /// code's covering node are skipped outright.
  /// Table and result are exactly those of per-code insert() calls.
  InsertResult insert_all(const core::CodeList& codes);
  /// The same merge over a local batch (any order; unsorted input merely
  /// shares shorter prefixes).
  InsertResult insert_all(std::span<const core::PathCode> codes);

  /// True when `code` or one of its ancestors is recorded completed.
  [[nodiscard]] bool covered(core::PathView code) const;

  /// The maximal completed code covering `code` (itself or its highest
  /// completed ancestor), or nullopt when uncovered. Work reports use this
  /// to ship the most contracted representative of each fresh completion.
  [[nodiscard]] std::optional<core::PathCode> covering_code(core::PathView code) const;

  /// Length of the covering prefix: covering_code(code) is always
  /// code.prefix(*covering_prefix_len(code)), so callers that only need the
  /// region — not an owned copy — take the zero-copy view code.prefix(len).
  [[nodiscard]] std::optional<std::size_t> covering_prefix_len(
      core::PathView code) const;

  /// Termination predicate: the table contracted to the root code.
  [[nodiscard]] bool root_complete() const { return root_complete_; }

  /// Contracted list of completed codes, in deterministic DFS order
  /// (left branch first). This is what a full-table gossip message carries.
  /// Built in one pass straight from the trie (chain link sizes come from
  /// the per-node depths and byte counts) and memoized until the table next
  /// changes, so every gossip between two mutations shares one payload.
  [[nodiscard]] core::CodeList export_list() const;

  /// export_list() materialized as owned codes (tests, diagnostics).
  [[nodiscard]] std::vector<core::PathCode> export_codes() const;

  /// Maximal regions of the tree *not* covered by this table: for every
  /// incomplete trie node, branches that were never reported under. Each
  /// returned code is a real tree node (see file comment). The root-only
  /// answer {()} is returned for an empty table. Returns {} iff the root is
  /// complete.
  [[nodiscard]] std::vector<core::PathCode> complement() const;

  /// complement() into a caller-owned buffer — the recovery path's
  /// scratch-reusing variant: existing elements are overwritten in place
  /// (copy-assign reuses each element's heap capacity).
  void complement_into(std::vector<core::PathCode>& out) const;

  /// Number of codes in the contracted representation.
  [[nodiscard]] std::size_t code_count() const { return complete_count_; }

  [[nodiscard]] bool empty() const { return complete_count_ == 0; }

  /// Stored size of the contracted table: a varint count plus every code's
  /// core::PathCode::encode() bytes, maintained incrementally. This is the
  /// storage-space unit of Table 1 (a gossip frame ships the same codes
  /// delta-chained, see core/frame.hpp).
  [[nodiscard]] std::size_t encoded_bytes() const {
    return support::varint_size(complete_count_) + body_bytes_;
  }

  /// Trie footprint, for memory diagnostics.
  [[nodiscard]] std::size_t trie_nodes() const { return live_nodes_; }

  /// Heap bytes of the node pool and its free list (the export memo aside).
  [[nodiscard]] std::size_t allocated_bytes() const {
    return nodes_.capacity() * sizeof(Node) +
           free_list_.capacity() * sizeof(std::int32_t);
  }

  void clear();

  /// Deep structural validation for tests: complete nodes are leaves, no two
  /// complete siblings, incremental counters match a recount. Aborts on
  /// violation.
  void check_invariants() const;

  /// Two tables are equivalent iff their contracted exports match.
  friend bool operator==(const LegacyCodeSet& a, const LegacyCodeSet& b) {
    return a.export_list() == b.export_list();
  }

  [[nodiscard]] std::string to_string() const;

 private:
  struct Node {
    std::uint32_t var = kNoVar;  // variable this tree node branches on
    std::int32_t parent = -1;
    std::int32_t child[2] = {-1, -1};
    std::uint32_t depth = 0;
    std::uint32_t body_bytes = 0;  // encoded bytes of the steps of this path
    std::uint8_t bit_in_parent = 0;
    bool complete = false;
    bool in_use = false;
  };

  [[nodiscard]] std::size_t code_bytes(const Node& n) const {
    return support::varint_size(n.depth) + n.body_bytes;
  }

  std::int32_t alloc_node();
  void free_subtree(std::int32_t idx);      // releases idx and descendants
  void drop_completed_below(std::int32_t idx);  // accounting for subsumed codes
  void mark_complete(std::int32_t idx, InsertResult& res);

  /// The insert walk of `code` from depth `i` at node `cur` (the nodes above
  /// were walked and found incomplete). With a `path`, appends every node
  /// entered and leaves it ending at the node that covers the code.
  InsertResult walk(core::PathView code, std::size_t i, std::int32_t cur,
                    std::vector<std::int32_t>* path);
  class Shared;
  template <typename Codes>
  InsertResult merge(const Codes& codes);

  /// Where export_list()'s DFS stands: the depth of the leaf it emitted
  /// last, and the node at which it turned away from that leaf's path.
  struct ListCursor {
    std::uint32_t prev_depth = 0;
    std::int32_t turn = 0;
  };
  void list_dfs(std::int32_t idx, core::PathCode& path, ListCursor& cursor,
                core::CodeList::Builder& out) const;
  void complement_dfs(std::int32_t idx, core::PathCode& path,
                      std::vector<core::PathCode>& out) const;

  std::vector<Node> nodes_;
  std::vector<std::int32_t> free_list_;
  std::size_t complete_count_ = 0;
  std::size_t body_bytes_ = 0;  // sum over completed leaves of code body+header bytes (see encoded_bytes)
  std::size_t live_nodes_ = 0;
  std::vector<std::int32_t> merge_path_;  // insert_all's walk stack (scratch)
  /// Bumped by every mutation that changes the completed set. The export and
  /// complement enumerations are memoized against it: a table gossiped to k
  /// peers (or complemented repeatedly during recovery) between mutations
  /// walks the trie once. The export memo is the shared payload itself, so
  /// the next k-1 gossips cost a reference-count bump. The memos cost one
  /// contracted list each — small by design (compactness of the contracted
  /// form is the paper's Table 1 point) — and are lazily built, so tables
  /// that never export pay nothing.
  std::uint64_t version_ = 0;
  mutable core::CodeList exported_;
  mutable std::uint64_t exported_version_ = ~std::uint64_t{0};
  mutable std::vector<core::PathCode> complement_memo_;
  mutable std::uint64_t complement_memo_version_ = ~std::uint64_t{0};
  /// Mirrors nodes_[0].complete. The termination predicate is polled on
  /// every scheduling step; reading it from the CodeSet object itself (hot
  /// next to the owning worker's state) skips a dependent load into the
  /// nodes_ heap block.
  bool root_complete_ = false;
};




inline void LegacyCodeSet::clear() {
  nodes_.clear();
  free_list_.clear();
  complete_count_ = 0;
  body_bytes_ = 0;
  live_nodes_ = 0;
  root_complete_ = false;
  ++version_;
  // Release memo storage: a cleared table (worker restart, scratch reuse)
  // should not pin the previous incarnation's contracted list.
  exported_ = core::CodeList();
  complement_memo_.clear();
  complement_memo_.shrink_to_fit();
  // Node 0 is always the root problem.
  nodes_.push_back(Node{});
  nodes_[0].in_use = true;
  live_nodes_ = 1;
}

inline std::int32_t LegacyCodeSet::alloc_node() {
  ++live_nodes_;
  if (!free_list_.empty()) {
    const std::int32_t idx = free_list_.back();
    free_list_.pop_back();
    nodes_[static_cast<std::size_t>(idx)] = Node{};
    nodes_[static_cast<std::size_t>(idx)].in_use = true;
    return idx;
  }
  nodes_.push_back(Node{});
  nodes_.back().in_use = true;
  return static_cast<std::int32_t>(nodes_.size() - 1);
}

inline void LegacyCodeSet::free_subtree(std::int32_t idx) {
  Node& n = nodes_[static_cast<std::size_t>(idx)];
  for (const std::int32_t c : n.child) {
    if (c >= 0) free_subtree(c);
  }
  n.in_use = false;
  --live_nodes_;
  free_list_.push_back(idx);
}

inline void LegacyCodeSet::drop_completed_below(std::int32_t idx) {
  // Codes completed somewhere under idx are about to be subsumed by an
  // ancestor; remove them from the export accounting before the subtree is
  // discarded.
  const Node& n = nodes_[static_cast<std::size_t>(idx)];
  if (n.complete) {
    --complete_count_;
    body_bytes_ -= code_bytes(n);
    return;  // complete nodes are leaves; nothing below
  }
  for (const std::int32_t c : n.child) {
    if (c >= 0) drop_completed_below(c);
  }
}

inline void LegacyCodeSet::mark_complete(std::int32_t idx, InsertResult& res) {
  {
    Node& n = nodes_[static_cast<std::size_t>(idx)];
    FTBB_CHECK(!n.complete);
    // Subsume any completions previously recorded inside this subtree.
    for (std::int32_t& c : n.child) {
      if (c >= 0) {
        drop_completed_below(c);
        free_subtree(c);
        c = -1;
      }
    }
    n.complete = true;
    if (idx == 0) root_complete_ = true;
    ++complete_count_;
    body_bytes_ += code_bytes(n);
  }

  // List contraction: while the sibling is also complete, replace the pair
  // by their parent (recursively) — Section 5.3.2.
  std::int32_t cur = idx;
  while (true) {
    const Node& n = nodes_[static_cast<std::size_t>(cur)];
    const std::int32_t parent = n.parent;
    if (parent < 0) break;  // reached the root
    Node& p = nodes_[static_cast<std::size_t>(parent)];
    const std::int32_t sib = p.child[n.bit_in_parent ^ 1];
    if (sib < 0 || !nodes_[static_cast<std::size_t>(sib)].complete) break;

    // Both children complete -> parent complete.
    for (const std::int32_t c : p.child) {
      --complete_count_;
      body_bytes_ -= code_bytes(nodes_[static_cast<std::size_t>(c)]);
      free_subtree(c);
    }
    p.child[0] = -1;
    p.child[1] = -1;
    p.complete = true;
    if (parent == 0) root_complete_ = true;
    ++complete_count_;
    body_bytes_ += code_bytes(p);
    ++res.merges;
    cur = parent;
  }
}

inline LegacyCodeSet::InsertResult LegacyCodeSet::walk(core::PathView code, std::size_t i,
                                    std::int32_t cur,
                                    std::vector<std::int32_t>* path) {
  InsertResult res;
  for (; i < code.depth(); ++i) {
    Node& n = nodes_[static_cast<std::size_t>(cur)];
    ++res.nodes_walked;
    if (n.complete) return res;  // covered by an ancestor; nothing to do
    const std::uint32_t var = code.var(i);
    const std::uint8_t bit = code.bit(i);
    if (n.var == kNoVar) {
      n.var = var;
    } else {
      FTBB_CHECK_MSG(n.var == var,
                     "CodeSet: codes disagree on a node's branching variable "
                     "(codes must come from one search tree)");
    }
    std::int32_t next = n.child[bit];
    if (next < 0) {
      next = alloc_node();
      Node& parent = nodes_[static_cast<std::size_t>(cur)];  // realloc-safe refetch
      Node& child = nodes_[static_cast<std::size_t>(next)];
      child.parent = cur;
      child.bit_in_parent = bit;
      child.depth = parent.depth + 1;
      child.body_bytes =
          parent.body_bytes +
          static_cast<std::uint32_t>(support::varint_size(code.word(i)));
      parent.child[bit] = next;
    }
    cur = next;
    if (path != nullptr) path->push_back(cur);
  }
  ++res.nodes_walked;
  if (nodes_[static_cast<std::size_t>(cur)].complete) return res;
  res.newly_covered = true;
  // The trie changes iff the code is newly covered: fresh nodes are only
  // allocated along a path whose endpoint was not yet complete (and then
  // that endpoint is completed right here), so no-op inserts — common when
  // stale gossip re-reports known completions — keep the memos warm.
  ++version_;
  mark_complete(cur, res);
  // Each merge completed the parent and freed the node below it: the path
  // now ends at the covering node.
  if (path != nullptr) path->resize(path->size() - res.merges);
  return res;
}

inline LegacyCodeSet::InsertResult LegacyCodeSet::insert(core::PathView code) {
  return walk(code, 0, 0, nullptr);
}

template <typename Codes>
inline LegacyCodeSet::InsertResult LegacyCodeSet::merge(const Codes& codes) {
  InsertResult total;
  // merge_path_[j] is the node at depth j of the previous code's walk, down
  // to the node that covered it. Those nodes are still live and (above the
  // last) incomplete, and the variables along them were checked against the
  // shared prefix: a per-code walk would visit exactly them. So each code
  // resumes below its common prefix with the previous code, counting the
  // skipped nodes as walked.
  std::vector<std::int32_t>& path = merge_path_;
  path.assign(1, 0);
  codes.each([&](const typename Codes::Item& item) {
    const std::size_t lcp = std::min(item.shared, path.size() - 1);
    path.resize(lcp + 1);
    const InsertResult r = walk(item.code, lcp, path[lcp], &path);
    total.newly_covered = total.newly_covered || r.newly_covered;
    total.nodes_walked += static_cast<std::uint32_t>(lcp) + r.nodes_walked;
    total.merges += r.merges;
  });
  return total;
}

/// A list's codes with each one's common prefix with the code before it:
/// read off the records of a CodeList, compared for a span.
class LegacyCodeSet::Shared {
 public:
  struct Item {
    core::PathView code;
    std::size_t shared;
  };
  explicit Shared(const core::CodeList& list) : list_(&list) {}
  explicit Shared(std::span<const core::PathCode> codes) : span_(codes) {}

  template <typename F>
  void each(F&& f) const {
    if (list_ != nullptr) {
      core::CodeList::Decoder dec(*list_);
      while (!dec.done()) {
        const core::CodeList::Link l = dec.next();
        f(Item{dec.code(), l.lcp});
      }
      return;
    }
    core::PathView prev;
    for (const core::PathCode& c : span_) {
      const std::size_t cap = std::min(prev.depth(), c.depth());
      std::size_t n = 0;
      while (n < cap && prev.word(n) == c.word(n)) ++n;
      f(Item{c.view(), n});
      prev = c.view();
    }
  }

 private:
  const core::CodeList* list_ = nullptr;
  std::span<const core::PathCode> span_;
};

inline LegacyCodeSet::InsertResult LegacyCodeSet::insert_all(const core::CodeList& codes) {
  return merge(Shared(codes));
}

inline LegacyCodeSet::InsertResult LegacyCodeSet::insert_all(std::span<const core::PathCode> codes) {
  return merge(Shared(codes));
}

inline bool LegacyCodeSet::covered(core::PathView code) const {
  std::int32_t cur = 0;
  for (std::size_t i = 0; i < code.depth(); ++i) {
    const Node& n = nodes_[static_cast<std::size_t>(cur)];
    if (n.complete) return true;
    if (n.var != kNoVar && n.var != code.var(i)) return false;  // different tree region knowledge
    const std::int32_t next = n.child[code.bit(i)];
    if (next < 0) return false;
    cur = next;
  }
  return nodes_[static_cast<std::size_t>(cur)].complete;
}

inline std::optional<std::size_t> LegacyCodeSet::covering_prefix_len(core::PathView code) const {
  std::int32_t cur = 0;
  for (std::size_t i = 0; i < code.depth(); ++i) {
    const Node& n = nodes_[static_cast<std::size_t>(cur)];
    if (n.complete) return i;
    if (n.var != kNoVar && n.var != code.var(i)) return std::nullopt;
    const std::int32_t next = n.child[code.bit(i)];
    if (next < 0) return std::nullopt;
    cur = next;
  }
  if (nodes_[static_cast<std::size_t>(cur)].complete) return code.depth();
  return std::nullopt;
}

inline std::optional<core::PathCode> LegacyCodeSet::covering_code(core::PathView code) const {
  const std::optional<std::size_t> len = covering_prefix_len(code);
  if (!len.has_value()) return std::nullopt;
  return core::PathCode(code.prefix(*len));
}


inline void LegacyCodeSet::list_dfs(std::int32_t idx, core::PathCode& path, ListCursor& cursor,
                       core::CodeList::Builder& out) const {
  const Node& node = nodes_[static_cast<std::size_t>(idx)];
  if (node.complete) {
    // Consecutive leaves of the DFS share exactly the path down to the
    // node where it turned from the previous leaf's branch to this one's.
    const Node& turn = nodes_[static_cast<std::size_t>(cursor.turn)];
    out.append(path, turn.depth);
    cursor.prev_depth = node.depth;
    return;
  }
  const std::size_t emitted = out.size();
  for (std::uint32_t bit = 0; bit < 2; ++bit) {
    const std::int32_t c = node.child[bit];
    if (c < 0) continue;
    // The next leaf turns here iff the left subtree emitted the previous one.
    if (bit == 1 && out.size() > emitted) cursor.turn = idx;
    // Unchecked push: node.var was validated when the trie learned it.
    path.push_word((node.var << 1) | bit);
    list_dfs(c, path, cursor, out);
    path.pop_step();
  }
}

inline core::CodeList LegacyCodeSet::export_list() const {
  if (exported_version_ != version_) {
    core::CodeList::Builder out;
    // Two header words per code, the trie's words below each turn, and at
    // most every code's whole depth again for the whole-code records (every
    // step word encodes to at least one byte): one allocation, no regrowth.
    out.reserve(complete_count_, 2 * complete_count_ + live_nodes_ - 1 + body_bytes_);
    core::PathCode path;
    ListCursor cursor;
    list_dfs(0, path, cursor, out);
    exported_ = out.finish();
    exported_version_ = version_;
  }
  return exported_;
}

inline std::vector<core::PathCode> LegacyCodeSet::export_codes() const {
  return export_list().to_vector();
}

inline void LegacyCodeSet::complement_dfs(std::int32_t idx, core::PathCode& path,
                             std::vector<core::PathCode>& out) const {
  const Node& node = nodes_[static_cast<std::size_t>(idx)];
  if (node.complete) return;
  if (node.var == kNoVar) {
    // No completion was ever reported below this node: the whole region is
    // uncovered. (Only reachable for the empty table's root.)
    out.push_back(path);
    return;
  }
  for (std::uint32_t bit = 0; bit < 2; ++bit) {
    const std::int32_t c = node.child[bit];
    if (c < 0) {
      // The sibling region never mentioned in any report; its tree node
      // exists because this node was expanded on node.var.
      path.push_word((node.var << 1) | bit);
      out.push_back(path);
      path.pop_step();
    } else if (!nodes_[static_cast<std::size_t>(c)].complete) {
      path.push_word((node.var << 1) | bit);
      complement_dfs(c, path, out);
      path.pop_step();
    }
  }
}

inline void LegacyCodeSet::complement_into(std::vector<core::PathCode>& out) const {
  if (complement_memo_version_ != version_) {
    complement_memo_.clear();
    core::PathCode path;
    complement_dfs(0, path, complement_memo_);
    complement_memo_version_ = version_;
  }
  out = complement_memo_;  // element-wise copy-assign over out's elements
}

inline std::vector<core::PathCode> LegacyCodeSet::complement() const {
  std::vector<core::PathCode> out;
  complement_into(out);
  return out;
}

inline void LegacyCodeSet::check_invariants() const {
  std::size_t complete_seen = 0;
  std::size_t bytes_seen = 0;
  std::size_t live_seen = 0;
  // Iterative DFS with explicit parent verification.
  struct Frame {
    std::int32_t idx;
  };
  std::vector<Frame> stack{{0}};
  while (!stack.empty()) {
    const std::int32_t idx = stack.back().idx;
    stack.pop_back();
    const Node& n = nodes_[static_cast<std::size_t>(idx)];
    FTBB_CHECK_MSG(n.in_use, "CodeSet: reachable node not in_use");
    ++live_seen;
    if (n.complete) {
      ++complete_seen;
      bytes_seen += code_bytes(n);
      FTBB_CHECK_MSG(n.child[0] < 0 && n.child[1] < 0,
                     "CodeSet: complete node must be a leaf");
      continue;
    }
    const bool c0 = n.child[0] >= 0 &&
                    nodes_[static_cast<std::size_t>(n.child[0])].complete;
    const bool c1 = n.child[1] >= 0 &&
                    nodes_[static_cast<std::size_t>(n.child[1])].complete;
    FTBB_CHECK_MSG(!(c0 && c1), "CodeSet: uncontracted sibling pair");
    for (int bit = 0; bit < 2; ++bit) {
      const std::int32_t c = n.child[bit];
      if (c < 0) continue;
      const Node& ch = nodes_[static_cast<std::size_t>(c)];
      FTBB_CHECK(ch.parent == idx);
      FTBB_CHECK(ch.bit_in_parent == bit);
      FTBB_CHECK(ch.depth == n.depth + 1);
      stack.push_back({c});
    }
  }
  FTBB_CHECK_MSG(complete_seen == complete_count_, "CodeSet: stale code_count");
  FTBB_CHECK_MSG(bytes_seen == body_bytes_, "CodeSet: stale byte accounting");
  FTBB_CHECK_MSG(live_seen == live_nodes_, "CodeSet: stale live node count");
}

inline std::string LegacyCodeSet::to_string() const {
  std::string s = "{";
  bool first = true;
  for (const core::PathView c : export_list()) {
    if (!first) s += ", ";
    first = false;
    s += core::PathCode(c).to_string();
  }
  s += "}";
  return s;
}

}  // namespace ftbb::bench
