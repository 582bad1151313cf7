// Microbenchmark: ActivePool vs the seed flat-heap pool.
//
// Measures the worker-facing pool operations at 1k / 10k / 100k entries and
// writes BENCH_pool.json (same flavor as BENCH_table1.json) so the pool's
// perf trajectory is tracked across PRs. Both pools are binary heaps that
// answer removals with one scan; ActivePool swaps cached-key slots instead
// of whole subproblems and recycles its entries.
//
// The `prune` workload replays the worker's steady-state mix: for every
// incumbent improvement that actually eliminates a tail there are many
// covered sweeps triggered by incoming work reports, and most of those
// sweeps remove nothing. Per 32 events: 29 no-match covered sweeps, 1
// covered sweep hitting a small subtree, 1 elimination cutting ~1% of the
// pool (refilled to keep n steady), 1 elimination that finds nothing.
// `--smoke` shrinks the measurement windows for CI.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_timing.hpp"
#include "bench/legacy_pool.hpp"
#include "bnb/pool.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace ftbb;
using bench::LegacyPool;
using bench::measure;
using bnb::ActivePool;
using bnb::SelectRule;
using bnb::Subproblem;
using core::PathCode;

PathCode exact_code(support::Rng& rng, std::size_t depth,
                    std::uint32_t var_base) {
  PathCode code = PathCode::root();
  for (std::size_t d = 0; d < depth; ++d) {
    code = code.child(var_base + static_cast<std::uint32_t>(d * 3 + rng.pick(2)),
                      rng.chance(0.5));
  }
  return code;
}

PathCode random_code(support::Rng& rng, std::size_t max_depth,
                     std::uint32_t var_base) {
  return exact_code(rng, 1 + rng.pick(max_depth), var_base);
}

Subproblem random_problem(support::Rng& rng) {
  return Subproblem{random_code(rng, 12, 0), rng.uniform()};
}

template <typename Pool>
Pool build_pool(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  Pool pool(SelectRule::kBestFirst);
  for (std::size_t i = 0; i < n; ++i) pool.push(random_problem(rng));
  return pool;
}

// --------------------------------------------------------------- workloads

template <typename Pool>
double bench_push_pop(std::size_t n, double window) {
  Pool pool = build_pool<Pool>(n, 42);
  support::Rng rng(7);
  return measure(window, 2.0, [&] {
    pool.push(random_problem(rng));
    (void)pool.pop();
  });
}

/// Bulk load: push n problems into a fresh pool, then answer one query —
/// the pattern of seeding a worker (root expansion burst, big work grant).
template <typename Pool>
double bench_bulk_push(std::size_t n, double window) {
  support::Rng rng(23);
  Pool pool(SelectRule::kBestFirst);
  double sink = 0.0;
  const double out = measure(window, static_cast<double>(n), [&] {
    pool.clear();
    for (std::size_t i = 0; i < n; ++i) pool.push(random_problem(rng));
    sink += pool.best_bound();
  });
  if (sink < 0.0) std::printf("%f", sink);  // defeat dead-code elimination
  return out;
}

template <typename Pool>
double bench_best_bound(std::size_t n, double window) {
  Pool pool = build_pool<Pool>(n, 42);
  double sink = 0.0;
  const double out = measure(window, 1.0, [&] { sink += pool.best_bound(); });
  if (sink < 0.0) std::printf("%f", sink);  // defeat dead-code elimination
  return out;
}

/// One elimination event cutting roughly `frac` of the pool, refilled to
/// keep n steady. `prune_above` on ActivePool, remove_if on the seed.
template <typename Pool>
std::size_t eliminate_tail(Pool& pool, double threshold);

template <>
std::size_t eliminate_tail(ActivePool& pool, double threshold) {
  return pool.prune_above(threshold).size();
}
template <>
std::size_t eliminate_tail(LegacyPool& pool, double threshold) {
  return pool
      .remove_if([threshold](const Subproblem& p) { return p.bound >= threshold; })
      .size();
}

template <typename Pool>
std::size_t sweep_covered(Pool& pool, const std::vector<PathCode>& regions) {
  return pool
      .remove_if([&regions](const Subproblem& p) {
        for (const PathCode& r : regions) {
          if (r.contains(p.code)) return true;
        }
        return false;
      })
      .size();
}

template <typename Pool>
double bench_eliminate_hit(std::size_t n, double window) {
  Pool pool = build_pool<Pool>(n, 42);
  support::Rng rng(11);
  const std::size_t batch = n / 100;  // every call eliminates a ~1% tail
  return measure(window, 1.0, [&] {
    for (std::size_t i = 0; i < batch; ++i) {
      pool.push(Subproblem{random_code(rng, 12, 0),
                           0.99 + 0.01 * rng.uniform()});
    }
    (void)eliminate_tail(pool, 0.99);
  });
}

template <typename Pool>
double bench_covered_sweep(std::size_t n, double window) {
  Pool pool = build_pool<Pool>(n, 42);
  support::Rng rng(13);
  return measure(window, 1.0, [&] {
    // Report arrives; its covering regions miss this worker's pool —
    // the overwhelmingly common case.
    std::vector<PathCode> regions;
    for (int i = 0; i < 3; ++i) regions.push_back(random_code(rng, 6, 1000));
    (void)sweep_covered(pool, regions);
  });
}

template <typename Pool>
double bench_prune_mixed(std::size_t n, double window) {
  Pool pool = build_pool<Pool>(n, 42);
  support::Rng rng(17);
  std::uint32_t event = 0;
  return measure(window, 32.0, [&] {
    for (int i = 0; i < 32; ++i) {
      ++event;
      if (event % 32 == 0) {
        // Rare: an incumbent improvement cuts a ~1% tail; refill.
        const std::size_t cut = n / 100;
        for (std::size_t k = 0; k < cut; ++k) {
          pool.push(Subproblem{random_code(rng, 12, 0),
                               0.99 + 0.01 * rng.uniform()});
        }
        (void)eliminate_tail(pool, 0.99);
      } else if (event % 32 == 16) {
        // An improvement that eliminates nothing locally.
        (void)eliminate_tail(pool, 1.5);
      } else if (event % 32 == 8) {
        // A report that covers a small local subtree (a depth-5 region holds
        // ~n/4^5 of the random pool codes); refill what it removed.
        std::vector<PathCode> regions{exact_code(rng, 5, 0)};
        const std::size_t cut = sweep_covered(pool, regions);
        for (std::size_t k = 0; k < cut; ++k) pool.push(random_problem(rng));
      } else {
        // The common case: a report whose regions miss the pool entirely.
        std::vector<PathCode> regions;
        for (int r = 0; r < 3; ++r) regions.push_back(random_code(rng, 6, 1000));
        (void)sweep_covered(pool, regions);
      }
    }
  });
}

template <typename Pool>
double bench_extract(std::size_t n, double window) {
  Pool pool = build_pool<Pool>(n, 42);
  return measure(window, 1.0, [&] {
    std::vector<Subproblem> out = pool.extract_for_sharing(64);
    for (Subproblem& p : out) pool.push(std::move(p));
  });
}

struct OpResult {
  const char* op;
  double legacy = 0.0;
  double active = 0.0;
  [[nodiscard]] double speedup() const { return active / legacy; }
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const double window = smoke ? 0.03 : 0.25;
  std::printf("pool microbench: ActivePool vs seed flat heap "
              "(best-first)%s\n\n", smoke ? " [smoke]" : "");

  const std::vector<std::size_t> sizes = {1000, 10000, 100000};
  struct SizeResult {
    std::size_t entries;
    std::vector<OpResult> ops;
  };
  std::vector<SizeResult> all;

  for (const std::size_t n : sizes) {
    SizeResult sr{n, {}};
    sr.ops.push_back({"push_pop", bench_push_pop<LegacyPool>(n, window),
                      bench_push_pop<ActivePool>(n, window)});
    sr.ops.push_back({"bulk_push", bench_bulk_push<LegacyPool>(n, window),
                      bench_bulk_push<ActivePool>(n, window)});
    sr.ops.push_back({"best_bound", bench_best_bound<LegacyPool>(n, window),
                      bench_best_bound<ActivePool>(n, window)});
    sr.ops.push_back({"prune", bench_prune_mixed<LegacyPool>(n, window),
                      bench_prune_mixed<ActivePool>(n, window)});
    sr.ops.push_back({"eliminate_hit", bench_eliminate_hit<LegacyPool>(n, window),
                      bench_eliminate_hit<ActivePool>(n, window)});
    sr.ops.push_back({"covered_sweep", bench_covered_sweep<LegacyPool>(n, window),
                      bench_covered_sweep<ActivePool>(n, window)});
    sr.ops.push_back({"extract", bench_extract<LegacyPool>(n, window),
                      bench_extract<ActivePool>(n, window)});
    all.push_back(std::move(sr));
  }

  for (const auto& sr : all) {
    std::printf("pool size %zu\n", sr.entries);
    support::TextTable table({"op", "seed flat heap (ops/s)",
                              "ActivePool (ops/s)", "speedup"});
    for (const OpResult& r : sr.ops) {
      table.row({r.op, support::TextTable::num(r.legacy, 0),
                 support::TextTable::num(r.active, 0),
                 support::TextTable::num(r.speedup(), 2)});
    }
    std::printf("%s\n", table.render().c_str());
  }

  FILE* json = bench::open_bench_json("BENCH_pool.json", "pool");
  if (json == nullptr) return 1;
  std::fprintf(json, "  \"rule\": \"best-first\",\n  \"smoke\": %s,\n"
                     "  \"sizes\": [\n", smoke ? "true" : "false");
  for (std::size_t s = 0; s < all.size(); ++s) {
    std::fprintf(json, "    {\"entries\": %zu, \"ops\": [\n", all[s].entries);
    for (std::size_t o = 0; o < all[s].ops.size(); ++o) {
      const OpResult& r = all[s].ops[o];
      std::fprintf(json,
                   "      {\"op\": \"%s\", \"legacy_ops_per_sec\": %.0f, "
                   "\"active_ops_per_sec\": %.0f, \"speedup\": %.2f}%s\n",
                   r.op, r.legacy, r.active, r.speedup(),
                   o + 1 < all[s].ops.size() ? "," : "");
    }
    std::fprintf(json, "    ]}%s\n", s + 1 < all.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_pool.json\n");
  return 0;
}
