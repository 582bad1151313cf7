// E14 — microbenchmarks of the fault-tolerance data structures.
//
// These ground the simulator's contraction-cost model: the per-code and
// per-trie-node constants charged as "list contraction time" in the
// experiments can be compared against what the real implementation costs on
// this machine. Self-timed (no external benchmark dependency) and emits
// BENCH_micro_codes.json so the trajectory is tracked across PRs; `--smoke`
// shrinks the measurement windows for CI.
//
// Rows prefixed `legacy_` run the same operation on the pointer-trie
// completion table the chunked one replaced (bench/legacy_code_set.hpp), so
// each speed-up is read off one file. The "footprint" section records the
// bytes of a Table-1 table and of its exported gossip list in both forms.
//
// Besides throughput, every bench reports allocs/op and bytes/op via an
// instrumented global allocator (counted over a separate untimed loop so the
// instrumentation never skews the timings). The binary exits nonzero if any
// `*_inline` code derivation allocates (the packed small-buffer PathCode
// guarantees child/sibling/parent are allocation-free at inline depths), or
// if the Table-1 gossip merge, its export or a complement allocates more per
// op than its steady-state count. CI runs `--smoke` so a regression fails the
// perf-smoke job.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_timing.hpp"
#include "bench/legacy_code_set.hpp"
#include "bench/workloads.hpp"
#include "bnb/basic_tree.hpp"
#include "core/code_set.hpp"
#include "core/frame.hpp"
#include "core/messages.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

// --- instrumented global allocator (this bench binary only) ----------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};

void* counted_alloc(std::size_t size, std::align_val_t align) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (a <= alignof(std::max_align_t)) return std::malloc(size);
  return std::aligned_alloc(a, (std::max<std::size_t>(size, 1) + a - 1) / a * a);
}

constexpr std::align_val_t kDefaultAlign{alignof(std::max_align_t)};
}  // namespace

// Every replacement stays out of line, and the aligned forms count too.
// Inlined into a container, the malloc/free inside them meets the library's
// delete/new on the other side of the allocation and GCC reports a
// mismatched pair (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size, kDefaultAlign)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, kDefaultAlign);
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size, kDefaultAlign)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_alloc(size, align)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new(std::size_t size, std::align_val_t align,
                                     const std::nothrow_t&) noexcept {
  return counted_alloc(size, align);
}

[[gnu::noinline]] void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_alloc(size, align)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace ftbb;
using bench::LegacyCodeSet;
using bench::measure;
using core::CodeList;
using core::CodeSet;
using core::PathCode;

/// Collects every leaf code of a random tree with ~`nodes` nodes.
std::vector<PathCode> leaf_codes(std::uint64_t nodes, std::uint64_t seed) {
  bnb::RandomTreeConfig cfg;
  cfg.target_nodes = nodes;
  cfg.seed = seed;
  const bnb::BasicTree tree = bnb::BasicTree::random(cfg);
  std::vector<PathCode> out;
  std::vector<std::pair<std::int32_t, PathCode>> stack;
  stack.emplace_back(0, PathCode::root());
  while (!stack.empty()) {
    auto [idx, code] = std::move(stack.back());
    stack.pop_back();
    const auto& n = tree.node(static_cast<std::size_t>(idx));
    if (n.is_leaf()) {
      out.push_back(std::move(code));
      continue;
    }
    for (int bit = 0; bit < 2; ++bit) {
      stack.emplace_back(n.child[bit], code.child(n.var, bit != 0));
    }
  }
  return out;
}

/// Every leaf code of bench::large_problem_dense(), the Table-1 tree (node
/// depths: mean 32.1, maximum 78).
std::vector<PathCode> table1_leaf_codes() {
  const bnb::BasicTree tree = bench::large_problem_dense();
  std::vector<PathCode> out;
  std::vector<std::pair<std::int32_t, PathCode>> stack;
  stack.emplace_back(0, PathCode::root());
  while (!stack.empty()) {
    auto [idx, code] = std::move(stack.back());
    stack.pop_back();
    const auto& n = tree.node(static_cast<std::size_t>(idx));
    if (n.is_leaf()) {
      out.push_back(std::move(code));
      continue;
    }
    for (int bit = 0; bit < 2; ++bit) {
      stack.emplace_back(n.child[bit], code.child(n.var, bit != 0));
    }
  }
  return out;
}

/// A mid-run completion table of that tree: random leaves completed (and
/// contracted) until the table holds `codes` codes.
template <typename Table = CodeSet>
Table table1_table(const std::vector<PathCode>& leaves, std::size_t codes,
                   std::uint64_t seed) {
  support::Rng rng(seed);
  Table table;
  for (const std::size_t i :
       rng.sample_without_replacement(leaves.size(), leaves.size())) {
    if (table.code_count() >= codes) break;
    table.insert(leaves[i]);
  }
  return table;
}

struct Result {
  std::string name;
  double ops_per_sec = 0.0;
  double allocs_per_op = 0.0;
  double bytes_per_op = 0.0;
};

/// Resident bytes of one completion table or list, in each form.
struct Footprint {
  std::string name;
  std::size_t codes = 0;
  std::size_t bytes = 0;
  std::size_t legacy_bytes = 0;
};

volatile std::size_t g_sink = 0;  // defeats dead-code elimination

/// Counts steady-state allocations of `op`: two warmup calls let lazily
/// grown buffers (scratch vectors, trie node pools) reach their fixed point,
/// then `kCalls` counted repetitions are averaged per logical op.
template <typename Fn>
void count_allocs(Result& r, double ops_per_call, Fn&& op) {
  constexpr int kCalls = 100;
  op();
  op();
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  const std::uint64_t b0 = g_bytes.load(std::memory_order_relaxed);
  for (int i = 0; i < kCalls; ++i) op();
  const double ops = kCalls * ops_per_call;
  r.allocs_per_op =
      static_cast<double>(g_allocs.load(std::memory_order_relaxed) - a0) / ops;
  r.bytes_per_op =
      static_cast<double>(g_bytes.load(std::memory_order_relaxed) - b0) / ops;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const double window = smoke ? 0.02 : 0.2;
  std::printf("E14 / micro benchmarks of codes, tables and reports%s\n\n",
              smoke ? " [smoke]" : "");
  std::vector<Result> results;

  const auto bench = [&](std::string name, double ops_per_call, auto&& op) {
    Result r;
    r.name = std::move(name);
    r.ops_per_sec = measure(window, ops_per_call, op);
    count_allocs(r, ops_per_call, op);
    results.push_back(std::move(r));
  };

  {
    // Depth 8: child lands at depth 9, still inside the inline word buffer.
    // These three must stay at exactly 0 allocs/op (gated below). The
    // derivations are pure and header-inline, so the source code is read
    // through a volatile pointer — otherwise the compiler hoists the whole
    // op out of the measurement loop.
    PathCode code = PathCode::root();
    for (std::uint32_t i = 0; i < 8; ++i) code = code.child(i, i % 2 != 0);
    PathCode* volatile src = &code;
    bench("path_code_child_inline", 1.0, [&] {
      PathCode out = src->child(9, true);
      bench::keep(&out);
    });
    bench("path_code_sibling_inline", 1.0, [&] {
      PathCode out = src->sibling();
      bench::keep(&out);
    });
    bench("path_code_parent_inline", 1.0, [&] {
      PathCode out = src->parent();
      bench::keep(&out);
    });
  }

  for (const int depth : {30, 512}) {
    PathCode code = PathCode::root();
    for (int i = 0; i < depth; ++i) {
      code = code.child(static_cast<std::uint32_t>(i), i % 2 != 0);
    }
    PathCode* volatile src = &code;
    bench("path_code_child_depth" + std::to_string(depth), 1.0, [&] {
      PathCode out = src->child(static_cast<std::uint32_t>(depth) + 1, true);
      bench::keep(&out);
    });
  }

  for (const int depth : {8, 32, 128, 512}) {
    PathCode code = PathCode::root();
    for (int i = 0; i < depth; ++i) {
      code = code.child(static_cast<std::uint32_t>(i), i % 2 != 0);
    }
    bench("path_code_encode_decode_depth" + std::to_string(depth), 1.0, [&] {
      support::ByteWriter w;
      code.encode(w);
      support::ByteReader r(w.data());
      g_sink = g_sink + PathCode::decode(r).depth();
    });
  }

  // Single inserts: every leaf of a tree, one by one, until the table
  // contracts to the root.
  const auto insert_leaves = [&]<typename Table>(const std::string& prefix) {
    for (const std::uint64_t nodes : {1001u, 10001u, 100001u}) {
      const auto leaves = leaf_codes(nodes, 11);
      bench(prefix + "code_set_insert_all_leaves_" + std::to_string(nodes),
            static_cast<double>(leaves.size()), [&] {
              Table set;
              for (const PathCode& c : leaves) set.insert(c);
              g_sink = g_sink + (set.root_complete() ? 1 : 0);
            });
    }
  };
  insert_leaves.operator()<CodeSet>("");
  insert_leaves.operator()<LegacyCodeSet>("legacy_");

  const auto covered = [&]<typename Table>(const std::string& prefix) {
    const auto leaves = leaf_codes(10001, 13);
    Table set;
    // Half completed -> realistic mid-run table.
    for (std::size_t i = 0; i < leaves.size(); i += 2) set.insert(leaves[i]);
    std::size_t i = 0;
    bench(prefix + "code_set_covered", 1.0, [&] {
      g_sink = g_sink + (set.covered(leaves[i]) ? 1 : 0);
      i = (i + 1) % leaves.size();
    });
  };
  covered.operator()<CodeSet>("");
  covered.operator()<LegacyCodeSet>("legacy_");

  const auto merge_reports = [&]<typename Table>(const std::string& prefix) {
    // A receiver merging 8-code work reports into a growing table.
    const auto leaves = leaf_codes(20001, 17);
    bench(prefix + "code_set_merge_8code_reports",
          static_cast<double>(leaves.size() / 8), [&] {
            Table table;
            std::vector<PathCode> report;
            for (const PathCode& c : leaves) {
              report.push_back(c);
              if (report.size() == 8) {
                table.insert_all(report);
                report.clear();
              }
            }
            g_sink = g_sink + table.code_count();
          });
  };
  merge_reports.operator()<CodeSet>("");
  merge_reports.operator()<LegacyCodeSet>("legacy_");

  {
    // The recovery path: one complement of a third-completed table, built
    // from the chunks on every call.
    const auto leaves = leaf_codes(10001, 19);
    CodeSet set;
    for (std::size_t i = 0; i < leaves.size(); i += 3) set.insert(leaves[i]);
    bench("code_set_complement", 1.0,
          [&] { g_sink = g_sink + set.complement().size(); });
  }

  {
    // The gossip path's export between two table mutations: the memoized
    // list is the shared payload, so each call is a reference-count bump.
    // `_fresh` materializes owned PathCodes (tests and diagnostics only).
    const auto leaves = leaf_codes(10001, 23);
    CodeSet set;
    for (std::size_t i = 0; i < leaves.size(); i += 2) set.insert(leaves[i]);
    bench("code_set_export", 1.0,
          [&] { g_sink = g_sink + set.export_list().size(); });
    bench("code_set_export_fresh", 1.0,
          [&] { g_sink = g_sink + set.export_codes().size(); });
  }

  // Table-1 gossip: ~3,300 codes at the Table-1 tree's depths, the size a
  // table1-dense worker gossips mid-run.
  std::vector<Footprint> footprints;
  const std::vector<PathCode> table1_leaves = table1_leaf_codes();
  const auto table1_gossip = [&]<typename Table>(const std::string& prefix) {
    const std::vector<PathCode>& leaves = table1_leaves;
    const Table sender = table1_table<Table>(leaves, 3300, 31);
    const CodeList gossip = sender.export_list();
    // The receiver overlaps the sender: its own completions plus every
    // other code of the gossip.
    Table receiver = table1_table<Table>(leaves, 3300, 37);
    {
      std::size_t i = 0;
      for (const core::PathView c : gossip) {
        if (i++ % 2 == 0) receiver.insert(c);
      }
    }
    if (prefix.empty()) {
      std::size_t words = 0;
      for (const core::PathView c : gossip) words += c.depth();
      std::printf("table-1 gossip: %zu codes, mean depth %.1f; receiver %zu codes\n\n",
                  gossip.size(), static_cast<double>(words) / static_cast<double>(gossip.size()),
                  receiver.code_count());
      // The list the export replaced stored every code's whole words after
      // a 24-byte header and an offset per code.
      footprints.push_back({"table1_gossip_export", gossip.size(), gossip.allocated_bytes(),
                            24 + (gossip.size() + 1 + words) * sizeof(std::uint32_t)});
      const CodeSet plain = table1_table<CodeSet>(leaves, 3300, 37);
      const LegacyCodeSet legacy = table1_table<LegacyCodeSet>(leaves, 3300, 37);
      footprints.push_back({"table1_table", plain.code_count(), plain.allocated_bytes(),
                            legacy.allocated_bytes()});
    }

    // Merge into the overlapping receiver, batch versus per-code. Each op
    // first restores the receiver by copy-assignment (same cost in both
    // rows, allocation-free once capacities settle).
    Table table;
    bench(prefix + "code_list_merge_table1_gossip_batch", 1.0, [&] {
      table = receiver;
      g_sink = g_sink + table.insert_all(gossip).nodes_walked;
    });
    bench(prefix + "code_list_merge_table1_gossip_per_code", 1.0, [&] {
      table = receiver;
      std::uint32_t walked = 0;
      for (const core::PathView c : gossip) walked += table.insert(c).nodes_walked;
      g_sink = g_sink + walked;
    });

    // Export after a mutation: the memo is stale, so this is the full
    // build of the list that each gossip of a changed table pays. Each op
    // first completes one fresh region (the child of an uncovered region:
    // one more code, no contraction); the table is restored every 50 ops so
    // its size stays put. 50 divides count_allocs()'s 100 calls, so the
    // allocation count is the same whichever op the count starts at.
    std::vector<PathCode> fresh;
    for (const PathCode& region : sender.complement()) {
      if (fresh.size() == 50) break;
      fresh.push_back(region.child(PathCode::kMaxVar, false));
    }
    std::size_t k = 0;
    bench(prefix + "code_list_export_table1", 1.0, [&] {
      if (k % fresh.size() == 0) table = sender;
      table.insert(fresh[k++ % fresh.size()]);
      g_sink = g_sink + table.export_list().size();
    });
  };
  table1_gossip.operator()<CodeSet>("");
  table1_gossip.operator()<LegacyCodeSet>("legacy_");

  for (const int codes : {8, 64}) {
    const auto leaves = leaf_codes(2001, 29);
    core::Message msg;
    msg.type = core::MsgType::kWorkReport;
    msg.from = 3;
    msg.best_known = -123.0;
    std::vector<PathCode> list;
    for (int i = 0; i < codes; ++i) {
      list.push_back(leaves[static_cast<std::size_t>(i) % leaves.size()]);
    }
    msg.codes = core::CodeList(list);
    bench("work_report_encode_decode_" + std::to_string(codes) + "codes", 1.0,
          [&] {
            support::ByteWriter w;
            core::encode_frame(msg, nullptr, w);
            g_sink = g_sink + core::decode_frame(w.data()).msg.codes.size();
          });
  }

  support::TextTable table({"bench", "ops/s", "allocs/op", "bytes/op"});
  for (const Result& r : results) {
    table.row({r.name, support::TextTable::num(r.ops_per_sec, 0),
               support::TextTable::num(r.allocs_per_op, 2),
               support::TextTable::num(r.bytes_per_op, 0)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\n");
  support::TextTable bytes({"footprint", "codes", "bytes", "legacy bytes"});
  for (const Footprint& f : footprints) {
    bytes.row({f.name, std::to_string(f.codes), std::to_string(f.bytes),
               std::to_string(f.legacy_bytes)});
  }
  std::printf("%s", bytes.render().c_str());

  FILE* json = bench::open_bench_json("BENCH_micro_codes.json", "micro_codes");
  if (json == nullptr) return 1;
  std::fprintf(json, "  \"smoke\": %s,\n  \"results\": [\n",
               smoke ? "true" : "false");
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"ops_per_sec\": %.0f, "
                 "\"allocs_per_op\": %.3f, \"bytes_per_op\": %.1f}%s\n",
                 results[i].name.c_str(), results[i].ops_per_sec,
                 results[i].allocs_per_op, results[i].bytes_per_op,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"footprint\": [\n");
  for (std::size_t i = 0; i < footprints.size(); ++i) {
    const Footprint& f = footprints[i];
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"codes\": %zu, \"bytes\": %zu, "
                 "\"legacy_bytes\": %zu}%s\n",
                 f.name.c_str(), f.codes, f.bytes, f.legacy_bytes,
                 i + 1 < footprints.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_micro_codes.json\n");

  // Gates: inline-depth code derivations must be allocation-free, and the
  // Table-1 gossip merge, its export and the complement allocate no more
  // than their steady-state counts: one list per output chunk, the export's
  // one list plus the fresh code's chunk, and one block per region deeper
  // than PathCode's inline words plus the region vector's growth.
  // Allocation counts are deterministic.
  struct Ceiling {
    const char* name;
    double allocs_per_op;
  };
  constexpr Ceiling kCeilings[] = {{"code_list_merge_table1_gossip_batch", 391.0},
                                   {"code_list_export_table1", 2.48},
                                   {"code_set_complement", 662.0}};
  int rc = 0;
  for (const Result& r : results) {
    double ceiling = r.name.find("_inline") != std::string::npos ? 0.0 : -1.0;
    for (const Ceiling& c : kCeilings) {
      if (r.name == c.name) ceiling = c.allocs_per_op;
    }
    if (ceiling >= 0.0 && r.allocs_per_op > ceiling * (1 + 1e-9)) {
      std::fprintf(stderr, "GATE FAIL: %s allocates %.3f/op (at most %.3f)\n",
                   r.name.c_str(), r.allocs_per_op, ceiling);
      rc = 1;
    }
  }
  return rc;
}
