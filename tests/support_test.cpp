#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "support/bytes.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace ftbb::support {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng master(7);
  Rng s1 = master.split(1);
  Rng s2 = master.split(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += s1.next() == s2.next() ? 1 : 0;
  EXPECT_LT(same, 3);
  // Splitting is a pure function of (state, id).
  Rng s1b = master.split(1);
  EXPECT_EQ(s1b.next(), Rng(7).split(1).next());
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(42);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, (1ULL << 40)}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsZero) {
  Rng rng(42);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

/// Sample mean and (n - 1) standard deviation.
struct Moments {
  double mean = 0.0;
  double stddev = 0.0;
};

Moments moments(const std::vector<double>& xs) {
  double sum = 0.0;
  for (const double x : xs) sum += x;
  const double mean = sum / static_cast<double>(xs.size());
  double ss = 0.0;
  for (const double x : xs) ss += (x - mean) * (x - mean);
  return {mean, std::sqrt(ss / static_cast<double>(xs.size() - 1))};
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  std::vector<double> xs;
  for (int i = 0; i < 200000; ++i) xs.push_back(rng.normal(10.0, 3.0));
  const Moments m = moments(xs);
  EXPECT_NEAR(m.mean, 10.0, 0.05);
  EXPECT_NEAR(m.stddev, 3.0, 0.05);
}

TEST(Rng, LognormalMeanCv) {
  Rng rng(17);
  std::vector<double> xs;
  for (int i = 0; i < 300000; ++i) xs.push_back(rng.lognormal_mean_cv(0.01, 0.3));
  const Moments m = moments(xs);
  EXPECT_NEAR(m.mean, 0.01, 0.0005);
  EXPECT_NEAR(m.stddev / m.mean, 0.3, 0.02);
  // cv = 0 degenerates to the constant.
  EXPECT_DOUBLE_EQ(rng.lognormal_mean_cv(5.0, 0.0), 5.0);
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng rng(19);
  for (std::size_t n : {1u, 5u, 100u}) {
    for (std::size_t k = 0; k <= n; k += std::max<std::size_t>(1, n / 3)) {
      const auto sample = rng.sample_without_replacement(n, k);
      EXPECT_EQ(sample.size(), k);
      std::set<std::size_t> seen(sample.begin(), sample.end());
      EXPECT_EQ(seen.size(), k);
      for (const std::size_t v : sample) EXPECT_LT(v, n);
    }
  }
}

TEST(Rng, SampleCoversAllElements) {
  Rng rng(23);
  const auto sample = rng.sample_without_replacement(8, 8);
  std::set<std::size_t> seen(sample.begin(), sample.end());
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Bytes, VarintRoundTrip) {
  ByteWriter w;
  const std::uint64_t values[] = {0, 1, 127, 128, 300, 16383, 16384,
                                  (1ULL << 32), ~0ULL};
  for (const auto v : values) w.varint(v);
  ByteReader r(w.data());
  for (const auto v : values) EXPECT_EQ(r.varint(), v);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, SignedVarintRoundTrip) {
  ByteWriter w;
  const std::int64_t values[] = {0, -1, 1, -64, 63, -12345678, 12345678,
                                 INT64_MIN, INT64_MAX};
  for (const auto v : values) w.svarint(v);
  ByteReader r(w.data());
  for (const auto v : values) EXPECT_EQ(r.svarint(), v);
}

TEST(Bytes, DoubleRoundTrip) {
  ByteWriter w;
  const double values[] = {0.0, -0.0, 1.5, -3.25e30, 1e-300,
                           std::numeric_limits<double>::infinity()};
  for (const auto v : values) w.f64(v);
  ByteReader r(w.data());
  for (const auto v : values) EXPECT_EQ(r.f64(), v);
}

TEST(Bytes, StringRoundTrip) {
  ByteWriter w;
  w.str("");
  w.str("hello");
  w.str(std::string(1000, 'x'));
  ByteReader r(w.data());
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), std::string(1000, 'x'));
}

TEST(Bytes, VarintSizeMatchesEncoding) {
  for (const std::uint64_t v : {0ULL, 127ULL, 128ULL, 16383ULL, 16384ULL, ~0ULL}) {
    ByteWriter w;
    w.varint(v);
    EXPECT_EQ(varint_size(v), w.size()) << v;
  }
}

TEST(TextTable, RendersAligned) {
  TextTable t({"name", "value"});
  t.row({"alpha", "1"});
  t.row({"b", "22.5"});
  const std::string out = t.render();
  // Column widths: "alpha" (5) and "value" (5).
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("name"), std::string::npos);
  // Header rule present.
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::pct(0.1234, 1), "12.3%");
}

}  // namespace
}  // namespace ftbb::support
