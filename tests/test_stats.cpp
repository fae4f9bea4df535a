#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace mtd {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_EQ(stats.skewness(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats stats;
  stats.add(42.0);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 42.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 42.0);
  EXPECT_DOUBLE_EQ(stats.max(), 42.0);
}

TEST(RunningStats, MatchesNaiveComputation) {
  const std::vector<double> xs{1.0, 2.5, -3.0, 7.5, 0.0, 2.0};
  RunningStats stats;
  for (double x : xs) stats.add(x);
  EXPECT_NEAR(stats.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(stats.variance(), variance(xs), 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), -3.0);
  EXPECT_DOUBLE_EQ(stats.max(), 7.5);
}

TEST(RunningStats, SkewnessSignReflectsAsymmetry) {
  RunningStats right_skewed, symmetric;
  Rng rng(3);
  for (int i = 0; i < 50000; ++i) {
    right_skewed.add(rng.exponential(1.0));  // skewness 2
    symmetric.add(rng.normal());
  }
  EXPECT_GT(right_skewed.skewness(), 1.5);
  EXPECT_NEAR(symmetric.skewness(), 0.0, 0.1);
}

TEST(RunningStats, CvIsStdOverMean) {
  RunningStats stats;
  for (double x : {8.0, 10.0, 12.0}) stats.add(x);
  EXPECT_NEAR(stats.cv(), 2.0 / 10.0, 1e-12);
}

TEST(Quantile, MedianOfOddSample) {
  const std::vector<double> xs{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.0);
}

TEST(Quantile, InterpolatesBetweenValues) {
  const std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.75), 7.5);
}

TEST(Quantile, ExtremesAreMinMax) {
  const std::vector<double> xs{5.0, -1.0, 3.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), -1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
}

TEST(Quantile, ThrowsOnEmptyOrBadQ) {
  EXPECT_THROW(quantile({}, 0.5), InvalidArgument);
  EXPECT_THROW((void)boxplot_stats({}), InvalidArgument);
  const std::vector<double> xs{1.0};
  EXPECT_THROW(quantile(xs, -0.1), InvalidArgument);
  EXPECT_THROW(quantile(xs, 1.1), InvalidArgument);
}

TEST(WeightedMean, BasicAndDegenerate) {
  const std::vector<double> xs{1.0, 3.0};
  const std::vector<double> ws{1.0, 3.0};
  EXPECT_DOUBLE_EQ(weighted_mean(xs, ws), 2.5);
  const std::vector<double> zero_ws{0.0, 0.0};
  EXPECT_DOUBLE_EQ(weighted_mean(xs, zero_ws), 0.0);
  const std::vector<double> short_ws{1.0};
  EXPECT_THROW(weighted_mean(xs, short_ws), InvalidArgument);
}

TEST(BoxplotStats, OrderedQuantiles) {
  std::vector<double> xs;
  for (int i = 0; i <= 100; ++i) xs.push_back(static_cast<double>(i));
  const BoxplotStats box = boxplot_stats(xs);
  EXPECT_NEAR(box.p5, 5.0, 1e-9);
  EXPECT_NEAR(box.q1, 25.0, 1e-9);
  EXPECT_NEAR(box.median, 50.0, 1e-9);
  EXPECT_NEAR(box.q3, 75.0, 1e-9);
  EXPECT_NEAR(box.p95, 95.0, 1e-9);
}

// ---- selection against a sort ----------------------------------------------
// quantile and boxplot_stats select instead of sorting; they must return
// the bits quantile_sorted gives over a sorted copy.

constexpr std::array<std::size_t, 6> kSelectionSizes{1, 2, 3, 17, 1000,
                                                     86400};
constexpr std::array<double, 7> kSelectionQs{0.0,  0.05, 0.25, 0.5,
                                             0.75, 0.95, 1.0};

/// Half of the values from a 5-value grid (many ties), half spread out.
std::vector<double> tie_heavy_sample(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) {
    x = rng.uniform() < 0.5 ? 0.25 * static_cast<double>(rng.uniform_index(5))
                            : rng.normal(1.0, 3.0);
  }
  return xs;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(Quantile, SelectionMatchesSortBitForBit) {
  for (const std::size_t n : kSelectionSizes) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const std::vector<double> xs = tie_heavy_sample(n, seed);
      std::vector<double> sorted = xs;
      std::sort(sorted.begin(), sorted.end());
      for (const double q : kSelectionQs) {
        EXPECT_EQ(bits(quantile(xs, q)), bits(quantile_sorted(sorted, q)))
            << "n=" << n << " seed=" << seed << " q=" << q;
      }
    }
  }
}

TEST(BoxplotStats, SelectionMatchesSortBitForBit) {
  for (const std::size_t n : kSelectionSizes) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const std::vector<double> xs = tie_heavy_sample(n, seed);
      std::vector<double> sorted = xs;
      std::sort(sorted.begin(), sorted.end());
      std::vector<double> scratch = xs;
      const BoxplotStats copied = boxplot_stats(xs);
      const BoxplotStats in_place = boxplot_stats_in_place(scratch);
      const std::array<std::array<double, 3>, 5> rows{{
          {quantile_sorted(sorted, 0.05), copied.p5, in_place.p5},
          {quantile_sorted(sorted, 0.25), copied.q1, in_place.q1},
          {quantile_sorted(sorted, 0.50), copied.median, in_place.median},
          {quantile_sorted(sorted, 0.75), copied.q3, in_place.q3},
          {quantile_sorted(sorted, 0.95), copied.p95, in_place.p95},
      }};
      for (const auto& row : rows) {
        EXPECT_EQ(bits(row[1]), bits(row[0])) << "n=" << n << " seed=" << seed;
        EXPECT_EQ(bits(row[2]), bits(row[0])) << "n=" << n << " seed=" << seed;
      }
      // The in-place form only reorders its input.
      std::sort(scratch.begin(), scratch.end());
      EXPECT_EQ(scratch, sorted);
    }
  }
}

TEST(Pearson, PerfectCorrelations) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> up{2.0, 4.0, 6.0, 8.0};
  std::vector<double> down(up.rbegin(), up.rend());
  EXPECT_NEAR(pearson(xs, up), 1.0, 1e-12);
  EXPECT_NEAR(pearson(xs, down), -1.0, 1e-12);
}

TEST(Pearson, ConstantSeriesIsZero) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const std::vector<double> constant{5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(pearson(xs, constant), 0.0);
}

TEST(RSquared, PerfectFitIsOne) {
  const std::vector<double> obs{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(r_squared(obs, obs), 1.0);
}

TEST(RSquared, MeanPredictorIsZero) {
  const std::vector<double> obs{1.0, 2.0, 3.0};
  const std::vector<double> fit{2.0, 2.0, 2.0};
  EXPECT_NEAR(r_squared(obs, fit), 0.0, 1e-12);
}

TEST(RSquared, WorseThanMeanIsNegative) {
  const std::vector<double> obs{1.0, 2.0, 3.0};
  const std::vector<double> fit{3.0, 2.0, 1.0};
  EXPECT_LT(r_squared(obs, fit), 0.0);
}

// Quantile is monotone in q for arbitrary samples.
class QuantileMonotone : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuantileMonotone, NonDecreasingInQ) {
  Rng rng(GetParam());
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(rng.normal(0.0, 5.0));
  double prev = quantile(xs, 0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = quantile(xs, q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileMonotone,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace mtd
