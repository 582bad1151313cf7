// Shared self-timing harness and JSON-artifact preamble for the benches.
//
// Every bench emits a BENCH_<name>.json tracked across PRs; comparing those
// artifacts is only meaningful when the machine and the build that produced
// them are recorded. open_bench_json() is the single place that knowledge
// lives: it opens the artifact and writes the common preamble (bench name,
// hardware concurrency, build flags, git revision), and the caller appends
// its bench-specific fields before closing the object.
#pragma once

#include <malloc.h>
#include <sys/resource.h>

#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

namespace ftbb::bench {

inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs `op` (which performs `ops_per_call` logical operations) repeatedly
/// for at least `target_seconds`, returns operations per second. Two calls
/// warm up outside the measurement window, so caches and the structure's
/// own recycled storage reach steady state first.
///
/// Clock reads are amortized over a geometrically growing batch of calls
/// (re-doubled until one batch spans ~1% of the window), so nanosecond-scale
/// ops — a packed-code child() is ~10ns — are not measured clock-to-clock,
/// where the ~25ns steady_clock read would dominate the number.
template <typename Fn>
double measure(double target_seconds, double ops_per_call, Fn&& op) {
  op();
  op();
  std::uint64_t calls = 0;
  std::uint64_t batch = 1;
  const double start = now_seconds();
  double elapsed = 0.0;
  do {
    for (std::uint64_t i = 0; i < batch; ++i) op();
    calls += batch;
    elapsed = now_seconds() - start;
    if (elapsed < target_seconds / 100.0) batch *= 2;
  } while (elapsed < target_seconds);
  return static_cast<double>(calls) * ops_per_call / elapsed;
}

/// Forces the object behind `p` to be materialized in memory each time: an
/// opaque asm statement the optimizer must assume inspects and mutates it.
/// Self-timed benches use this where a sink variable is not enough — e.g. a
/// derived PathCode whose buffer copy would otherwise be dead-store
/// eliminated once the op is inlined into the measurement loop.
inline void keep(void* p) { asm volatile("" : "+r"(p) : : "memory"); }

/// Returns freed heap to the system and restarts the kernel's peak-RSS
/// watermark, so peak_rss_mb() afterwards is the peak of what runs next.
/// Where /proc/self/clear_refs is unavailable the watermark stays
/// process-wide.
inline void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident memory in MB since the last reset_peak_rss().
inline double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // both are KiB
}

/// Compiler + optimization mode the binary was built with.
inline std::string build_flags() {
#ifdef NDEBUG
  std::string s = "release";
#else
  std::string s = "debug";
#endif
#ifdef __OPTIMIZE__
  s += "+optimize";
#endif
#ifdef __VERSION__
  s += " ";
  s += __VERSION__;
#endif
  return s;
}

/// `git describe --always --dirty` of the working tree, sanitized to the
/// JSON-safe characters a revision can contain; "unknown" when git (or the
/// repository) is unavailable, e.g. when a release tarball is benchmarked.
inline std::string git_describe() {
  std::string out;
  if (FILE* p = ::popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[128];
    if (std::fgets(buf, sizeof(buf), p) != nullptr) out = buf;
    ::pclose(p);
  }
  std::string clean;
  for (const char c : out) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '.' ||
        c == '-' || c == '_' || c == '+' || c == '/') {
      clean += c;
    }
  }
  return clean.empty() ? "unknown" : clean;
}

/// Opens `path` and writes the shared preamble: `{"bench": ...}` plus the
/// machine/build provenance fields. The object is left OPEN — the caller
/// appends its own fields and writes the closing brace. Returns nullptr
/// (after printing a diagnostic) when the file cannot be created.
inline FILE* open_bench_json(const char* path, const char* bench_name) {
  // Describe the tree before opening: truncating a committed artifact
  // would otherwise mark every run "-dirty".
  const std::string git = git_describe();
  FILE* json = std::fopen(path, "w");
  if (json == nullptr) {
    std::printf("cannot write %s\n", path);
    return nullptr;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"%s\",\n  \"hardware_concurrency\": %u,\n"
               "  \"build\": \"%s\",\n  \"git\": \"%s\",\n",
               bench_name, std::thread::hardware_concurrency(),
               build_flags().c_str(), git.c_str());
  return json;
}

}  // namespace ftbb::bench
