#include "core/code_set.hpp"

#include <algorithm>

#include "core/frame.hpp"

namespace ftbb::core {

CodeSet::CodeSet() { clear(); }

void CodeSet::clear() {
  nodes_.clear();
  free_list_.clear();
  complete_count_ = 0;
  body_bytes_ = 0;
  live_nodes_ = 0;
  root_complete_ = false;
  ++version_;
  // Release memo storage: a cleared table (worker restart, scratch reuse)
  // should not pin the previous incarnation's contracted list.
  exported_ = CodeList();
  complement_memo_.clear();
  complement_memo_.shrink_to_fit();
  // Node 0 is always the root problem.
  nodes_.push_back(Node{});
  nodes_[0].in_use = true;
  live_nodes_ = 1;
}

std::int32_t CodeSet::alloc_node() {
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

void CodeSet::free_subtree(std::int32_t idx) {
  Node& n = nodes_[static_cast<std::size_t>(idx)];
  for (const std::int32_t c : n.child) {
    if (c >= 0) free_subtree(c);
  }
  n.in_use = false;
  --live_nodes_;
  free_list_.push_back(idx);
}

void CodeSet::drop_completed_below(std::int32_t idx) {
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

void CodeSet::mark_complete(std::int32_t idx, InsertResult& res) {
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

CodeSet::InsertResult CodeSet::walk(PathView code, std::size_t i,
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

CodeSet::InsertResult CodeSet::insert(PathView code) {
  return walk(code, 0, 0, nullptr);
}

template <typename Codes>
CodeSet::InsertResult CodeSet::merge(const Codes& codes) {
  InsertResult total;
  // merge_path_[j] is the node at depth j of the previous code's walk, down
  // to the node that covered it. Those nodes are still live and (above the
  // last) incomplete, and the variables along them were checked against the
  // shared prefix: a per-code walk would visit exactly them. So each code
  // resumes below its common prefix with the previous code, counting the
  // skipped nodes as walked.
  std::vector<std::int32_t>& path = merge_path_;
  path.assign(1, 0);
  PathView prev;
  for (const PathView code : codes) {
    const std::size_t limit =
        std::min({prev.depth(), code.depth(), path.size() - 1});
    std::size_t lcp = 0;
    while (lcp < limit && prev.word(lcp) == code.word(lcp)) ++lcp;
    path.resize(lcp + 1);
    const InsertResult r = walk(code, lcp, path[lcp], &path);
    total.newly_covered = total.newly_covered || r.newly_covered;
    total.nodes_walked += static_cast<std::uint32_t>(lcp) + r.nodes_walked;
    total.merges += r.merges;
    prev = code;
  }
  return total;
}

CodeSet::InsertResult CodeSet::insert_all(const CodeList& codes) {
  return merge(codes);
}

CodeSet::InsertResult CodeSet::insert_all(std::span<const PathCode> codes) {
  return merge(codes);
}

bool CodeSet::covered(PathView code) const {
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

std::optional<std::size_t> CodeSet::covering_prefix_len(PathView code) const {
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

std::optional<PathCode> CodeSet::covering_code(PathView code) const {
  const std::optional<std::size_t> len = covering_prefix_len(code);
  if (!len.has_value()) return std::nullopt;
  return PathCode(code.prefix(*len));
}


void CodeSet::list_dfs(std::int32_t idx, PathCode& path, ListCursor& cursor,
                       CodeList::Builder& out) const {
  const Node& node = nodes_[static_cast<std::size_t>(idx)];
  if (node.complete) {
    // Consecutive leaves of the DFS share exactly the path down to the
    // node where it turned from the previous leaf's branch to this one's,
    // so the chain link is sized from the two nodes, not from the words.
    const Node& turn = nodes_[static_cast<std::size_t>(cursor.turn)];
    out.append(path, chain_link_size(cursor.prev_depth - turn.depth,
                                     node.depth - turn.depth,
                                     node.body_bytes - turn.body_bytes));
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

CodeList CodeSet::export_list() const {
  if (exported_version_ != version_) {
    CodeList::Builder out;
    // Every step word encodes to at least one byte, so the byte total
    // bounds the word total: one allocation, no regrowth.
    out.reserve(complete_count_, body_bytes_);
    PathCode path;
    ListCursor cursor;
    list_dfs(0, path, cursor, out);
    exported_ = out.finish();
    exported_version_ = version_;
  }
  return exported_;
}

std::vector<PathCode> CodeSet::export_codes() const {
  return export_list().to_vector();
}

void CodeSet::complement_dfs(std::int32_t idx, PathCode& path,
                             std::vector<PathCode>& out) const {
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

void CodeSet::complement_into(std::vector<PathCode>& out) const {
  if (complement_memo_version_ != version_) {
    complement_memo_.clear();
    PathCode path;
    complement_dfs(0, path, complement_memo_);
    complement_memo_version_ = version_;
  }
  out = complement_memo_;  // element-wise copy-assign over out's elements
}

std::vector<PathCode> CodeSet::complement() const {
  std::vector<PathCode> out;
  complement_into(out);
  return out;
}

void CodeSet::check_invariants() const {
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

std::string CodeSet::to_string() const {
  std::string s = "{";
  bool first = true;
  for (const PathView c : export_list()) {
    if (!first) s += ", ";
    first = false;
    s += PathCode(c).to_string();
  }
  s += "}";
  return s;
}

}  // namespace ftbb::core
