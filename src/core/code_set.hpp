// Completion table with list contraction and complement (Section 5.3.2).
//
// A CodeSet stores the set of subproblems *known to be completed*, in
// contracted form: whenever both children of a node are completed the two
// sibling codes are replaced by the parent's code, recursively, and any code
// covered by a completed ancestor is dropped. The contracted set is exactly
// the "table of completed problems" each member maintains; work reports are
// contracted the same way before being sent.
//
// Termination detection (Section 5.4) falls out of the representation: the
// computation is finished precisely when the table contracts to the single
// code of the root problem.
//
// Failure recovery (Section 5.3.2) uses the *complement*: the sibling of any
// stored code — or of any proper prefix of one — that is not itself covered
// identifies a subproblem that provably exists in the search tree (its
// parent was expanded) and is not known to be completed. complement() enumerates
// the maximal such regions.
//
// Implementation: a binary trie keyed by branching decisions. Completed
// nodes are trie leaves (their subtrees are pruned on completion), so the
// exported code list is the set of completed trie leaves. All codes inserted
// into one CodeSet must originate from a single underlying search tree
// (decomposition is deterministic per node), which the trie checks: the
// branching variable learned for a node must match on every later insert.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/code_list.hpp"
#include "core/path_code.hpp"
#include "support/bytes.hpp"

namespace ftbb::core {

class CodeSet {
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

  CodeSet();

  /// Records `code` as completed; contracts upward. Idempotent. Takes a
  /// view (a PathCode converts implicitly): the walk only reads steps.
  InsertResult insert(PathView code);

  /// Inserts every code of a report/table list in order; returns summed
  /// stats and whether anything changed. Each code resumes the trie walk at
  /// its common prefix with the previous code (whose path nodes are kept on
  /// a stack), so a DFS-ordered gossip enters each trie node on its paths
  /// once rather than once per code below it, and codes under the previous
  /// code's covering node are skipped outright.
  /// Table and result are exactly those of per-code insert() calls.
  InsertResult insert_all(const CodeList& codes);
  /// The same merge over a local batch (any order; unsorted input merely
  /// shares shorter prefixes).
  InsertResult insert_all(std::span<const PathCode> codes);

  /// True when `code` or one of its ancestors is recorded completed.
  [[nodiscard]] bool covered(PathView code) const;

  /// The maximal completed code covering `code` (itself or its highest
  /// completed ancestor), or nullopt when uncovered. Work reports use this
  /// to ship the most contracted representative of each fresh completion.
  [[nodiscard]] std::optional<PathCode> covering_code(PathView code) const;

  /// Length of the covering prefix: covering_code(code) is always
  /// code.prefix(*covering_prefix_len(code)), so callers that only need the
  /// region — not an owned copy — take the zero-copy view code.prefix(len).
  [[nodiscard]] std::optional<std::size_t> covering_prefix_len(
      PathView code) const;

  /// Termination predicate: the table contracted to the root code.
  /// Defined inline below the class: every scheduling step polls it, and a
  /// cross-TU call for a single flag load is measurable at planetary scale.
  [[nodiscard]] bool root_complete() const;

  /// Contracted list of completed codes, in deterministic DFS order
  /// (left branch first). This is what a full-table gossip message carries.
  /// Built in one pass straight from the trie (chain link sizes come from
  /// the per-node depths and byte counts) and memoized until the table next
  /// changes, so every gossip between two mutations shares one payload.
  [[nodiscard]] CodeList export_list() const;

  /// export_list() materialized as owned codes (tests, diagnostics).
  [[nodiscard]] std::vector<PathCode> export_codes() const;

  /// Maximal regions of the tree *not* covered by this table: for every
  /// incomplete trie node, branches that were never reported under. Each
  /// returned code is a real tree node (see file comment). The root-only
  /// answer {()} is returned for an empty table. Returns {} iff the root is
  /// complete.
  [[nodiscard]] std::vector<PathCode> complement() const;

  /// complement() into a caller-owned buffer — the recovery path's
  /// scratch-reusing variant: existing elements are overwritten in place
  /// (copy-assign reuses each element's heap capacity).
  void complement_into(std::vector<PathCode>& out) const;

  /// Number of codes in the contracted representation.
  [[nodiscard]] std::size_t code_count() const { return complete_count_; }

  [[nodiscard]] bool empty() const { return complete_count_ == 0; }

  /// Stored size of the contracted table: a varint count plus every code's
  /// PathCode::encode() bytes, maintained incrementally. This is the
  /// storage-space unit of Table 1 (a gossip frame ships the same codes
  /// delta-chained, see core/frame.hpp).
  [[nodiscard]] std::size_t encoded_bytes() const {
    return support::varint_size(complete_count_) + body_bytes_;
  }

  /// Trie footprint, for memory diagnostics.
  [[nodiscard]] std::size_t trie_nodes() const { return live_nodes_; }

  void clear();

  /// Deep structural validation for tests: complete nodes are leaves, no two
  /// complete siblings, incremental counters match a recount. Aborts on
  /// violation.
  void check_invariants() const;

  /// Two tables are equivalent iff their contracted exports match.
  friend bool operator==(const CodeSet& a, const CodeSet& b) {
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
  InsertResult walk(PathView code, std::size_t i, std::int32_t cur,
                    std::vector<std::int32_t>* path);
  template <typename Codes>
  InsertResult merge(const Codes& codes);

  /// Where export_list()'s DFS stands: the depth of the leaf it emitted
  /// last, and the node at which it turned away from that leaf's path.
  struct ListCursor {
    std::uint32_t prev_depth = 0;
    std::int32_t turn = 0;
  };
  void list_dfs(std::int32_t idx, PathCode& path, ListCursor& cursor,
                CodeList::Builder& out) const;
  void complement_dfs(std::int32_t idx, PathCode& path,
                      std::vector<PathCode>& out) const;

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
  mutable CodeList exported_;
  mutable std::uint64_t exported_version_ = ~std::uint64_t{0};
  mutable std::vector<PathCode> complement_memo_;
  mutable std::uint64_t complement_memo_version_ = ~std::uint64_t{0};
  /// Mirrors nodes_[0].complete. The termination predicate is polled on
  /// every scheduling step; reading it from the CodeSet object itself (hot
  /// next to the owning worker's state) skips a dependent load into the
  /// nodes_ heap block.
  bool root_complete_ = false;
};

inline bool CodeSet::root_complete() const { return root_complete_; }

}  // namespace ftbb::core
