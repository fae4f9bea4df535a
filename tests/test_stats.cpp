#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
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
