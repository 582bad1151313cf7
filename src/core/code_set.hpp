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
// Implementation: the contracted codes form an antichain, kept sorted (in
// the order of a left-first DFS) as a vector of small front-coded chunks,
// each a CodeList of at most CodeList::kRestart codes whose first code is
// stored whole. The table, its gossip export and the wire chain share that
// one packed form: an export copies the chunks' records into one exactly
// sized list (each chunk head takes its stored prefix, every kRestart-th
// record is written whole, the chain bytes are the chunks' totals plus a
// link per head), and a frame writes the export's records as they are.
// `covered(x)` searches the chunk heads and scans one chunk. Merging a
// sorted list is one pass over both, record by record, that contracts as it
// goes: it keeps each side's exact common prefix with the code being placed,
// so most records are ordered by their headers alone, and it skips without
// decoding the list's codes under a covering one. The complement is one
// scan. All codes inserted into one CodeSet must originate from a single
// underlying search tree (decomposition is deterministic per node), which
// inserts check: two codes that leave a shared prefix must branch there on
// the same variable.
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
  /// Outcome of an insert, with the work performed — the simulator charges
  /// list-contraction time proportional to `nodes_walked + merges`.
  ///
  /// `nodes_walked` counts the *modeled* per-code walk the simulator
  /// charges, that of a binary trie of the codes: the covering code's depth
  /// + 1 when the code was already covered, else the code's depth + 1. With
  /// the worker's per-gossip trie_nodes() charge it makes up
  /// WorkItem::kContractionNodes. It is not host work.
  struct InsertResult {
    bool newly_covered = false;  // false when the code was already covered
    std::uint32_t nodes_walked = 0;
    std::uint32_t merges = 0;  // sibling-pair contractions triggered
  };

  CodeSet() = default;  // an empty table allocates nothing

  /// Records `code` as completed; contracts upward. Idempotent. Rewrites
  /// the chunk the code lands in (and a neighbour it contracts or refills
  /// with): the one-code case of insert_all's merge.
  InsertResult insert(PathView code);

  /// Inserts every code of a report/table list in order; returns summed
  /// stats and whether anything changed. A list in sorted order (every
  /// export and report is one) is merged in one pass over the list and the
  /// chunks it reaches; the rest of a list that steps back goes code by
  /// code. Table and result are exactly those of per-code insert() calls.
  InsertResult insert_all(const CodeList& codes);
  /// The same merge over a local batch.
  InsertResult insert_all(std::span<const PathCode> codes);

  /// True when `code` or one of its ancestors is recorded completed.
  [[nodiscard]] bool covered(PathView code) const;

  /// The maximal completed code covering `code` (itself or its highest
  /// completed ancestor), or nullopt when uncovered. Work reports use this
  /// to ship the most contracted representative of each fresh completion.
  [[nodiscard]] std::optional<PathCode> covering_code(PathView code) const;

  /// Length of the covering prefix: covering_code(code) is always
  /// code.prefix(*covering_prefix_len(code)), so callers that only need the
  /// region — not an owned copy — take the view code.prefix(len).
  [[nodiscard]] std::optional<std::size_t> covering_prefix_len(
      PathView code) const;

  /// Termination predicate: the table contracted to the root code.
  /// Defined inline below the class: every scheduling step polls it, and a
  /// cross-TU call for a single flag load is measurable at planetary scale.
  [[nodiscard]] bool root_complete() const;

  /// Contracted list of completed codes, in deterministic DFS order (left
  /// branch first). This is what a full-table gossip message carries. Built
  /// by copying the chunks' records and memoized until the table next
  /// changes, so every gossip between two mutations shares one payload.
  [[nodiscard]] CodeList export_list() const;

  /// export_list() materialized as owned codes (tests, diagnostics).
  [[nodiscard]] std::vector<PathCode> export_codes() const;

  /// Maximal regions of the tree *not* covered by this table: for every
  /// proper prefix of a stored code, the branch no stored code takes. Each
  /// returned code is a real tree node (see file comment). The root-only
  /// answer {()} is returned for an empty table. Returns {} iff the root is
  /// complete.
  [[nodiscard]] std::vector<PathCode> complement() const;

  /// complement() into a caller-owned buffer — the recovery path's
  /// scratch-reusing variant: existing elements are overwritten in place
  /// (copy-assign reuses each element's heap capacity).
  void complement_into(std::vector<PathCode>& out) const;

  /// Number of codes in the contracted representation.
  [[nodiscard]] std::size_t code_count() const { return count_; }

  [[nodiscard]] bool empty() const { return count_ == 0; }

  /// Stored size of the contracted table: a varint count plus every code's
  /// PathCode::encode() bytes, maintained incrementally. This is the
  /// storage-space unit of Table 1 (a gossip frame ships the same codes
  /// delta-chained, see core/frame.hpp).
  [[nodiscard]] std::size_t encoded_bytes() const {
    return support::varint_size(count_) + body_bytes_;
  }

  /// Nodes of the binary trie of the stored codes (root included): 1 plus,
  /// over the codes in order, each code's depth less its common prefix with
  /// the code before it. The simulator charges per-gossip and per-recovery
  /// contraction time from it.
  [[nodiscard]] std::size_t trie_nodes() const { return 1 + trie_words_; }

  /// Heap bytes of the chunks (memory diagnostics; the export memo aside).
  [[nodiscard]] std::size_t allocated_bytes() const;

  void clear();

  /// Deep structural validation for tests: sorted antichain, no sibling
  /// pair, consistent branching variables, chunk sizes, and incremental
  /// counters that match a recount. Aborts on violation.
  void check_invariants() const;

  /// Two tables are equivalent iff their contracted exports match.
  friend bool operator==(const CodeSet& a, const CodeSet& b) {
    return a.export_list() == b.export_list();
  }

  [[nodiscard]] std::string to_string() const;

 private:
  /// One front-coded run of the table: at most CodeList::kRestart codes.
  struct Chunk {
    CodeList codes;
    /// The first code's common prefix with the previous chunk's last code.
    std::uint32_t lcp = 0;
  };
  struct Probe;
  class Merge;

  /// Index of the last chunk whose first code is <= `code`, or -1; sets
  /// `head_lcp` to that code's common prefix with `code`.
  [[nodiscard]] std::ptrdiff_t find_chunk(PathView code, std::size_t& head_lcp) const;
  /// The stored code at or before `code` in order, how much they share, and
  /// the record after it.
  [[nodiscard]] Probe probe(PathView code) const;

  template <typename Source>
  InsertResult insert_sorted(Source& source);

  std::vector<Chunk> chunks_;
  std::size_t count_ = 0;
  std::size_t body_bytes_ = 0;  // sum of the codes' encoded sizes (see encoded_bytes)
  std::size_t trie_words_ = 0;  // see trie_nodes()
  /// Bumped by every mutation that changes the completed set. The export and
  /// complement enumerations are memoized against it: a table gossiped to k
  /// peers (or complemented repeatedly during recovery) between mutations
  /// builds the list once. The export memo is the shared payload itself, so
  /// the next k-1 gossips cost a reference-count bump; a mutation releases
  /// it, so a stale copy of the records lives only as long as the messages
  /// carrying it. The memos are lazily built, so tables that never export
  /// pay nothing.
  std::uint64_t version_ = 0;
  mutable CodeList exported_;
  mutable std::uint64_t exported_version_ = ~std::uint64_t{0};
  mutable std::vector<PathCode> complement_memo_;
  mutable std::uint64_t complement_memo_version_ = ~std::uint64_t{0};
  /// The chunk the last search ended in: a worker's lookups cluster (the
  /// children of one expansion, the codes of one report), so the next search
  /// tries it and its successor before bisecting.
  mutable std::uint32_t hint_ = 0;
  /// The table is {()}. Polled on every scheduling step, so it lives in the
  /// object, next to the owning worker's state.
  bool root_complete_ = false;
};

inline bool CodeSet::root_complete() const { return root_complete_; }

}  // namespace ftbb::core
