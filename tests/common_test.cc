#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>

#include "common/debt_bucket.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"

namespace ear {
namespace {

// ------------------------------------------------------------------- rng

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.next();
    EXPECT_EQ(va, b.next());
  }
  // Different seed should diverge immediately with overwhelming probability.
  Rng a2(42);
  EXPECT_NE(a2.next(), c.next());
}

TEST(Rng, UniformBoundIsRespectedAndCoversRange) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng.uniform(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIsApproximatelyUniform) {
  Rng rng(8);
  constexpr int kBuckets = 10;
  constexpr int kSamples = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) {
    ++counts[rng.uniform(kBuckets)];
  }
  // Chi-squared with 9 dof: 99.9th percentile ~ 27.9.
  double chi2 = 0;
  const double expected = static_cast<double>(kSamples) / kBuckets;
  for (const int c : counts) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  EXPECT_LT(chi2, 27.9);
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
  // Degenerate range.
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformDoubleInHalfOpenUnitInterval) {
  Rng rng(10);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(11);
  double sum = 0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) sum += rng.exponential(2.5);
  EXPECT_NEAR(sum / kSamples, 2.5, 0.05);
}

TEST(Rng, NormalMomentsConverge) {
  Rng rng(12);
  double sum = 0, sq = 0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    const double v = rng.normal(10.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kSamples;
  const double var = sq / kSamples - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Rng, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(14);
  for (const size_t range : {10u, 100u, 1000u}) {
    for (const size_t m : {1u, 5u, 10u}) {
      const auto sample = rng.sample_without_replacement(range, m);
      ASSERT_EQ(sample.size(), m);
      std::set<size_t> unique(sample.begin(), sample.end());
      EXPECT_EQ(unique.size(), m);
      for (const size_t v : sample) EXPECT_LT(v, range);
    }
  }
  // m == range: a permutation.
  const auto all = rng.sample_without_replacement(8, 8);
  std::set<size_t> unique(all.begin(), all.end());
  EXPECT_EQ(unique.size(), 8u);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(15);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto shuffled = v;
  rng.shuffle(shuffled);
  auto sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, v);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(16);
  Rng child = parent.fork();
  EXPECT_NE(parent.next(), child.next());
}

// ------------------------------------------------------------------ stats

TEST(Summary, BasicMoments) {
  Summary s;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Summary, PercentilesInterpolate) {
  Summary s;
  for (int i = 1; i <= 5; ++i) s.add(i);  // 1..5
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.25), 2.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.125), 1.5);  // halfway between 1 and 2
}

TEST(Summary, BoxplotOrdering) {
  Summary s;
  Rng rng(17);
  for (int i = 0; i < 500; ++i) s.add(rng.uniform_double(0, 100));
  const auto b = s.boxplot();
  EXPECT_LE(b.min, b.q1);
  EXPECT_LE(b.q1, b.median);
  EXPECT_LE(b.median, b.q3);
  EXPECT_LE(b.q3, b.max);
}

TEST(Summary, EmptyIsSafe) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_EQ(format_boxplot(s), "(no samples)");
}

TEST(Summary, FormatBoxplotContainsFields) {
  Summary s;
  s.add(1.0);
  s.add(2.0);
  const std::string out = format_boxplot(s);
  EXPECT_NE(out.find("min="), std::string::npos);
  EXPECT_NE(out.find("med="), std::string::npos);
  EXPECT_NE(out.find("max="), std::string::npos);
}

TEST(LatencyPercentiles, KnownDistribution) {
  // 1..1000: p50 interpolates to 500.5, p99 to 990.01, p999 to 999.001.
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  const auto p = LatencyPercentiles::from(std::move(v));
  EXPECT_EQ(p.count, 1000u);
  EXPECT_DOUBLE_EQ(p.mean, 500.5);
  EXPECT_NEAR(p.p50, 500.5, 1e-9);
  EXPECT_NEAR(p.p90, 900.1, 1e-9);
  EXPECT_NEAR(p.p99, 990.01, 1e-9);
  EXPECT_NEAR(p.p999, 999.001, 1e-9);
  EXPECT_DOUBLE_EQ(p.max, 1000.0);
}

TEST(LatencyPercentiles, TailOrdering) {
  Summary s;
  Rng rng(23);
  for (int i = 0; i < 2000; ++i) s.add(rng.uniform_double(0, 1));
  const auto p = LatencyPercentiles::from(s);
  EXPECT_LE(p.p50, p.p90);
  EXPECT_LE(p.p90, p.p99);
  EXPECT_LE(p.p99, p.p999);
  EXPECT_LE(p.p999, p.max);
}

TEST(LatencyPercentiles, EmptyAndSingle) {
  const auto empty = LatencyPercentiles::from(std::vector<double>{});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.p999, 0.0);

  const auto one = LatencyPercentiles::from({0.125});
  EXPECT_EQ(one.count, 1u);
  EXPECT_DOUBLE_EQ(one.p50, 0.125);
  EXPECT_DOUBLE_EQ(one.p999, 0.125);
  EXPECT_DOUBLE_EQ(one.mean, 0.125);
}

TEST(LatencyPercentiles, FormatContainsFields) {
  const auto p = LatencyPercentiles::from({0.01, 0.02, 0.03});
  const std::string out = p.format();
  EXPECT_NE(out.find("p50="), std::string::npos);
  EXPECT_NE(out.find("p99="), std::string::npos);
  EXPECT_NE(out.find("p999="), std::string::npos);
}

// ------------------------------------------------------------------ units

TEST(Units, LiteralsAndConversions) {
  EXPECT_EQ(1_KB, 1024);
  EXPECT_EQ(1_MB, 1024 * 1024);
  EXPECT_EQ(2_GB, 2LL * 1024 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(gbps(1.0), 1e9 / 8.0);
  EXPECT_DOUBLE_EQ(mbps(800), 1e8);
  EXPECT_DOUBLE_EQ(to_mb(64_MB), 64.0);
}

// ------------------------------------------------------------------ flags

TEST(FlagParser, ParsesAllForms) {
  const char* argv[] = {"prog",       "--alpha=3",  "--beta", "7",
                        "--gamma",    "--delta=hi", "pos1",   "--eps=2.5",
                        "--neg", "-4"};
  FlagParser flags(static_cast<int>(std::size(argv)),
                   const_cast<char**>(argv));
  EXPECT_EQ(flags.get_int("alpha", 0), 3);
  EXPECT_EQ(flags.get_int("beta", 0), 7);
  EXPECT_TRUE(flags.get_bool("gamma"));
  EXPECT_EQ(flags.get_string("delta"), "hi");
  EXPECT_DOUBLE_EQ(flags.get_double("eps", 0), 2.5);
  // "--neg -4": the -4 is not consumed as a value (leading dash); it falls
  // through to the positional list.
  EXPECT_TRUE(flags.get_bool("neg"));
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "pos1");
  EXPECT_EQ(flags.positional()[1], "-4");
}

TEST(FlagParser, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  FlagParser flags(1, const_cast<char**>(argv));
  EXPECT_EQ(flags.get_int("missing", 42), 42);
  EXPECT_DOUBLE_EQ(flags.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(flags.get_string("missing", "x"), "x");
  EXPECT_FALSE(flags.get_bool("missing"));
  EXPECT_TRUE(flags.get_bool("missing", true));
  EXPECT_FALSE(flags.has("missing"));
}

TEST(FlagParser, ExplicitFalse) {
  const char* argv[] = {"prog", "--opt=false", "--zero=0"};
  FlagParser flags(3, const_cast<char**>(argv));
  EXPECT_FALSE(flags.get_bool("opt", true));
  EXPECT_FALSE(flags.get_bool("zero", true));
}

// ----------------------------------------------------------- debt bucket

// Fixed time points, no real clock: 1000 B/s, cap 500 B, full at t = 0.
TEST(DebtBucket, CapsRefillAndReportsTheDebtWait) {
  using TimePoint = DebtBucket::TimePoint;
  const auto at = [](double s) {
    return TimePoint{} + std::chrono::duration_cast<TimePoint::duration>(
                             std::chrono::duration<double>(s));
  };
  DebtBucket bucket(1000, 500, at(0));
  EXPECT_DOUBLE_EQ(bucket.tokens(), 500);

  // Idle time never fills past the cap.
  bucket.refill(at(10));
  EXPECT_DOUBLE_EQ(bucket.tokens(), 500);

  // A charge takes the full request, even into debt; the reported wait is
  // the debt at the refill rate.
  bucket.charge(800);
  EXPECT_DOUBLE_EQ(bucket.tokens(), -300);
  EXPECT_DOUBLE_EQ(bucket.seconds_until(0), 0.3);
  EXPECT_DOUBLE_EQ(bucket.seconds_until(200), 0.5);

  // Sleeping the wait off repays the debt exactly once: refilling at the
  // wait's end lands on zero, and a repeated or earlier refill adds nothing.
  bucket.refill(at(10.3));
  EXPECT_NEAR(bucket.tokens(), 0, 1e-6);
  bucket.refill(at(10.3));
  bucket.refill(at(10.1));
  EXPECT_NEAR(bucket.tokens(), 0, 1e-6);
  EXPECT_NEAR(bucket.seconds_until(0), 0, 1e-9);

  // Charging within the balance leaves no wait.
  bucket.refill(at(10.5));
  EXPECT_NEAR(bucket.tokens(), 200, 1e-6);
  bucket.charge(150);
  EXPECT_DOUBLE_EQ(bucket.seconds_until(0), 0);
}

}  // namespace
}  // namespace ear
