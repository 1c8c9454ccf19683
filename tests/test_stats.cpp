#include "util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace nocmap {
namespace {

TEST(Mean, Basic) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Mean, Empty) { EXPECT_DOUBLE_EQ(mean({}), 0.0); }

TEST(Stddev, PopulationKnownValue) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(stddev_population(xs), 2.0);
}

TEST(Stddev, PopulationDividesByN) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  EXPECT_NEAR(stddev_population(xs), std::sqrt(2.0 / 3.0), 1e-12);
}

TEST(Stddev, ConstantIsZero) {
  const std::vector<double> xs{5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(stddev_population(xs), 0.0);
}

TEST(Stddev, DegenerateSizes) {
  EXPECT_DOUBLE_EQ(stddev_population({}), 0.0);
  const std::vector<double> one{3.0};
  EXPECT_DOUBLE_EQ(stddev_population(one), 0.0);
}

TEST(MinMax, Basic) {
  const std::vector<double> xs{3.0, -1.0, 7.0, 2.0};
  EXPECT_DOUBLE_EQ(min_value(xs), -1.0);
  EXPECT_DOUBLE_EQ(max_value(xs), 7.0);
}

TEST(MinMax, EmptyThrows) {
  EXPECT_THROW(min_value({}), Error);
  EXPECT_THROW(max_value({}), Error);
}

TEST(MinToMaxRatio, Basic) {
  const std::vector<double> xs{2.0, 4.0};
  EXPECT_DOUBLE_EQ(min_to_max_ratio(xs), 0.5);
}

TEST(MinToMaxRatio, Degenerate) {
  EXPECT_DOUBLE_EQ(min_to_max_ratio({}), 1.0);
  const std::vector<double> zeros{0.0, 0.0};
  EXPECT_DOUBLE_EQ(min_to_max_ratio(zeros), 0.0);
}

TEST(RunningStats, MatchesBatchFormulas) {
  Rng rng(7);
  std::vector<double> xs;
  RunningStats rs;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-5.0, 11.0);
    xs.push_back(x);
    rs.add(x);
  }
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-9);
}

TEST(RunningStats, EmptyIsZero) {
  const RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
}

TEST(InverseNormalCdf, KnownQuantiles) {
  EXPECT_NEAR(inverse_normal_cdf(0.5), 0.0, 1e-8);
  EXPECT_NEAR(inverse_normal_cdf(0.841344746), 1.0, 1e-5);
  EXPECT_NEAR(inverse_normal_cdf(0.158655254), -1.0, 1e-5);
  EXPECT_NEAR(inverse_normal_cdf(0.97724987), 2.0, 1e-5);
  EXPECT_NEAR(inverse_normal_cdf(0.0013498980), -3.0, 1e-5);
}

TEST(InverseNormalCdf, Symmetry) {
  for (double p : {0.01, 0.1, 0.25, 0.4}) {
    EXPECT_NEAR(inverse_normal_cdf(p), -inverse_normal_cdf(1.0 - p), 1e-8);
  }
}

TEST(InverseNormalCdf, DomainChecked) {
  EXPECT_THROW(inverse_normal_cdf(0.0), Error);
  EXPECT_THROW(inverse_normal_cdf(1.0), Error);
}

// The fixed-bin percentile the range-free histogram replaced: 400 unit bins
// over [0, 400), larger samples clamped into the last bin.
double fixed_bin_percentile(const std::vector<std::uint64_t>& samples,
                            double p) {
  std::vector<std::size_t> counts(400, 0);
  for (const std::uint64_t x : samples) {
    ++counts[std::min<std::uint64_t>(x, 399)];
  }
  const double target = p * static_cast<double>(samples.size());
  double cum = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const auto c = static_cast<double>(counts[b]);
    if (cum + c >= target) {
      const double frac = c > 0.0 ? (target - cum) / c : 0.0;
      const auto lo = static_cast<double>(b);
      return lo + frac * (static_cast<double>(b + 1) - lo);
    }
    cum += c;
  }
  return 400.0;
}

TEST(Histogram, PercentileUniform) {
  Histogram h;
  for (std::uint64_t i = 0; i < 100; ++i) h.add(i);
  EXPECT_NEAR(h.percentile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.percentile(0.9), 90.0, 1.5);
}

TEST(Histogram, BelowUnitRangeMatchesFixedBins) {
  // Below 128 every bucket is one of the old unit bins, so a percentile that
  // lands there is the same double, bit for bit, whatever the tail holds.
  Rng rng(11);
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 4950; ++i) samples.push_back(rng.uniform_u32(128));
  for (int i = 0; i < 50; ++i) {
    samples.push_back(400 + rng.uniform_u32(1u << 20));
  }
  Histogram h;
  for (const std::uint64_t x : samples) h.add(x);
  for (const double p : {0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
    EXPECT_EQ(h.percentile(p), fixed_bin_percentile(samples, p)) << p;
  }
  EXPECT_GT(h.percentile(1.0), 400.0);  // the fixed bins stopped at 400
}

TEST(Histogram, BucketEdgesAreContiguous) {
  for (std::size_t b = 0; b < 1000; ++b) {
    const double lo = Histogram::bucket_lo(b);
    const double hi = Histogram::bucket_hi(b);
    ASSERT_LT(lo, hi) << b;
    EXPECT_EQ(Histogram::bucket_of(static_cast<std::uint64_t>(lo)), b);
    EXPECT_EQ(Histogram::bucket_of(static_cast<std::uint64_t>(hi) - 1), b);
  }
  EXPECT_EQ(Histogram::bucket_of(127), 127u);
  EXPECT_EQ(Histogram::bucket_lo(128), 128.0);
}

TEST(Histogram, LargeSampleIsBucketedNotClamped) {
  Histogram h;
  h.add(20000);
  const std::size_t b = Histogram::bucket_of(20000);
  const double lo = Histogram::bucket_lo(b);
  const double hi = Histogram::bucket_hi(b);
  EXPECT_LE(lo, 20000.0);
  EXPECT_GT(hi, 20000.0);
  EXPECT_LE(hi - lo, lo / 64.0);
  ASSERT_EQ(h.counts().size(), b + 1);
  EXPECT_EQ(h.counts()[b], 1u);
  EXPECT_GE(h.percentile(1.0), lo);
  EXPECT_LE(h.percentile(1.0), hi);
}

TEST(Histogram, P99WithinOneBucketOfNearestRank) {
  Rng rng(5);
  std::vector<std::uint64_t> samples;
  Histogram h;
  for (int i = 0; i < 10000; ++i) {
    const auto x = static_cast<std::uint64_t>(rng.lognormal(6.0, 1.5));
    samples.push_back(x);
    h.add(x);
  }
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(samples.size())));
  const std::uint64_t nearest_rank = samples[rank - 1];
  ASSERT_GT(nearest_rank, 128u);  // the log-linear range is what is tested
  const std::size_t b = Histogram::bucket_of(nearest_rank);
  const double p99 = h.percentile(0.99);
  EXPECT_GE(p99, Histogram::bucket_lo(b));
  EXPECT_LE(p99, Histogram::bucket_hi(b));
}

TEST(Histogram, EmptyReturnsZero) {
  const Histogram h;
  EXPECT_EQ(h.total(), 0u);
  EXPECT_TRUE(h.counts().empty());
  EXPECT_EQ(h.percentile(0.0), 0.0);
  EXPECT_EQ(h.percentile(0.99), 0.0);
  EXPECT_EQ(h.percentile(1.0), 0.0);
  EXPECT_THROW(h.percentile(1.5), Error);
}

}  // namespace
}  // namespace nocmap
