#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <set>
#include <vector>

#include "common/stats.hpp"

namespace mtd {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, SameSeedSameStream) {
  Rng a(7), b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformIsInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  Rng rng(2);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.005);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.002);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversRangeUniformly) {
  Rng rng(4);
  std::array<int, 7> counts{};
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(7)];
  for (int c : counts) EXPECT_NEAR(c, n / 7, 600);
}

TEST(Rng, UniformIndexOneIsAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_index(1), 0u);
}

TEST(Rng, NormalMoments) {
  Rng rng(6);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.01);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.01);
  EXPECT_NEAR(stats.skewness(), 0.0, 0.05);
}

TEST(Rng, NormalScaling) {
  Rng rng(7);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.normal(10.0, 2.5));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.5, 0.05);
}

TEST(Rng, ExponentialMoments) {
  Rng rng(8);
  RunningStats stats;
  const double rate = 0.25;
  for (int i = 0; i < 200000; ++i) stats.add(rng.exponential(rate));
  EXPECT_NEAR(stats.mean(), 1.0 / rate, 0.05);
  EXPECT_NEAR(stats.stddev(), 1.0 / rate, 0.1);
}

TEST(Rng, ParetoSupportAndMedian) {
  Rng rng(9);
  const double shape = 1.765, scale = 2.0;
  std::vector<double> samples;
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.pareto(shape, scale);
    EXPECT_GE(x, scale);
    samples.push_back(x);
  }
  // Median of Pareto: scale * 2^(1/shape).
  const double expected_median = scale * std::pow(2.0, 1.0 / shape);
  EXPECT_NEAR(quantile(samples, 0.5), expected_median, 0.05);
}

TEST(Rng, Log10NormalMedian) {
  Rng rng(10);
  std::vector<double> samples;
  for (int i = 0; i < 100000; ++i) samples.push_back(rng.log10_normal(1.0, 0.4));
  EXPECT_NEAR(quantile(samples, 0.5), 10.0, 0.2);
}

TEST(Rng, PoissonSmallMean) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.add(static_cast<double>(rng.poisson(3.5)));
  }
  EXPECT_NEAR(stats.mean(), 3.5, 0.05);
  EXPECT_NEAR(stats.variance(), 3.5, 0.1);
}

TEST(Rng, PoissonLargeMeanUsesNormalApprox) {
  Rng rng(12);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.add(static_cast<double>(rng.poisson(100.0)));
  }
  EXPECT_NEAR(stats.mean(), 100.0, 0.5);
  EXPECT_NEAR(stats.variance(), 100.0, 3.0);
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(14);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, SplitStreamsAreIndependentAndStable) {
  Rng parent1(55), parent2(55);
  Rng child_a = parent1.split(1);
  Rng child_a2 = parent2.split(1);
  Rng child_b = parent1.split(2);
  // Same (seed, stream) -> same stream.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(child_a.next_u64(), child_a2.next_u64());
  }
  // Different streams diverge.
  Rng child_a3 = parent2.split(1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (child_a3.next_u64() == child_b.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, StateRoundTripResumesTheStream) {
  Rng rng(2024);
  for (int i = 0; i < 17; ++i) rng.next_u64();
  // Leave a spare normal cached so set_state is forced to discard it: a
  // restored stream must depend only on the saved counter state.
  rng.normal();

  const auto saved = rng.state();
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < 100; ++i) expected.push_back(rng.next_u64());

  Rng resumed(0);
  resumed.normal();  // dirty the spare cache before restoring
  resumed.set_state(saved);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(resumed.next_u64(), expected[static_cast<std::size_t>(i)]);
  }

  // Distribution draws also resume identically. normal() caches a spare
  // (Box-Muller draws two): state() captures only the counter state, so
  // capture at an even draw count, and set_state must discard the
  // receiver's stale spare.
  Rng a(99), b(0);
  a.normal();
  a.normal();  // even count: a's spare cache is empty again
  b.normal();  // leaves a stale spare that set_state must drop
  b.set_state(a.state());
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(a.normal(), b.normal());
}

// Property sweep: the empirical mean of each distribution matches the
// analytic mean across a range of parameters.
struct DistributionCase {
  const char* name;
  double p1, p2;
  double expected_mean;
  double tolerance;
};

// Print a case as its label. The default printer dumps the struct's bytes,
// label pointer included, so the listed test names would change per process.
void PrintTo(const DistributionCase& c, std::ostream* os) { *os << c.name; }

class RngDistributionMeans : public ::testing::TestWithParam<DistributionCase> {};

TEST_P(RngDistributionMeans, NormalMeanMatches) {
  const auto& param = GetParam();
  Rng rng(1234);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.normal(param.p1, param.p2));
  EXPECT_NEAR(stats.mean(), param.expected_mean, param.tolerance)
      << param.name;
}

INSTANTIATE_TEST_SUITE_P(
    NormalParams, RngDistributionMeans,
    ::testing::Values(DistributionCase{"unit", 0.0, 1.0, 0.0, 0.02},
                      DistributionCase{"shifted", 5.0, 1.0, 5.0, 0.02},
                      DistributionCase{"wide", -2.0, 10.0, -2.0, 0.15},
                      DistributionCase{"narrow", 100.0, 0.1, 100.0, 0.01}));

}  // namespace
}  // namespace mtd
