#include "common/histogram.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace mtd {
namespace {

TEST(Axis, BasicGeometry) {
  const Axis axis(0.0, 10.0, 20);
  EXPECT_DOUBLE_EQ(axis.width(), 0.5);
  EXPECT_DOUBLE_EQ(axis.center(0), 0.25);
  EXPECT_DOUBLE_EQ(axis.edge(0), 0.0);
  EXPECT_DOUBLE_EQ(axis.edge(20), 10.0);
  EXPECT_DOUBLE_EQ(axis.center(19), 9.75);
}

TEST(Axis, IndexClampedBoundaries) {
  const Axis axis(0.0, 10.0, 10);
  EXPECT_EQ(axis.index_clamped(-5.0), 0u);
  EXPECT_EQ(axis.index_clamped(0.0), 0u);
  EXPECT_EQ(axis.index_clamped(5.0), 5u);
  EXPECT_EQ(axis.index_clamped(9.999), 9u);
  EXPECT_EQ(axis.index_clamped(10.0), 9u);
  EXPECT_EQ(axis.index_clamped(100.0), 9u);
  // Non-finite and huge coordinates clamp too, without an out-of-range
  // float-to-integer cast.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(axis.index_clamped(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(axis.index_clamped(-kInf), 0u);
  EXPECT_EQ(axis.index_clamped(kInf), 9u);
  EXPECT_EQ(axis.index_clamped(1e300), 9u);
}

TEST(Axis, ContainsHalfOpen) {
  const Axis axis(-1.0, 1.0, 4);
  EXPECT_TRUE(axis.contains(-1.0));
  EXPECT_TRUE(axis.contains(0.999));
  EXPECT_FALSE(axis.contains(1.0));
  EXPECT_FALSE(axis.contains(-1.001));
}

TEST(Axis, RejectsDegenerateConstruction) {
  EXPECT_THROW(Axis(0.0, 1.0, 0), InvalidArgument);
  EXPECT_THROW(Axis(1.0, 1.0, 10), InvalidArgument);
  EXPECT_THROW(Axis(2.0, 1.0, 10), InvalidArgument);
}

TEST(BinnedPdf, NormalizeYieldsUnitIntegral) {
  BinnedPdf pdf(Axis(0.0, 1.0, 10));
  pdf.add(0.15, 3.0);
  pdf.add(0.55, 1.0);
  pdf.normalize();
  EXPECT_NEAR(pdf.integral(), 1.0, 1e-12);
}

TEST(BinnedPdf, NormalizeEmptyIsNoop) {
  BinnedPdf pdf(Axis(0.0, 1.0, 10));
  pdf.normalize();
  EXPECT_DOUBLE_EQ(pdf.integral(), 0.0);
}

TEST(BinnedPdf, FromSamplesMatchesManualFill) {
  const Axis axis(0.0, 10.0, 10);
  const std::vector<double> coords{0.5, 0.7, 3.3, 9.9};
  const BinnedPdf pdf = BinnedPdf::from_samples(axis, coords);
  EXPECT_NEAR(pdf.integral(), 1.0, 1e-12);
  // Bin 0 holds half the samples.
  EXPECT_NEAR(pdf[0] * axis.width(), 0.5, 1e-12);
  EXPECT_NEAR(pdf[3] * axis.width(), 0.25, 1e-12);
}

TEST(BinnedPdf, MeanAndStddevOfPointMass) {
  BinnedPdf pdf(Axis(0.0, 10.0, 100));
  pdf.add(5.03);
  pdf.normalize();
  EXPECT_NEAR(pdf.mean(), 5.05, 1e-9);  // bin center
  EXPECT_NEAR(pdf.stddev(), 0.0, 1e-9);
}

TEST(BinnedPdf, MeanOfGaussianSamples) {
  Rng rng(1);
  BinnedPdf pdf(Axis(-10.0, 10.0, 200));
  for (int i = 0; i < 100000; ++i) pdf.add(rng.normal(2.0, 1.0));
  pdf.normalize();
  EXPECT_NEAR(pdf.mean(), 2.0, 0.02);
  EXPECT_NEAR(pdf.stddev(), 1.0, 0.02);
}

TEST(BinnedPdf, CenteredHasZeroMean) {
  Rng rng(2);
  BinnedPdf pdf(Axis(-10.0, 10.0, 200));
  for (int i = 0; i < 50000; ++i) pdf.add(rng.normal(3.0, 0.8));
  pdf.normalize();
  const BinnedPdf centered = pdf.centered();
  EXPECT_NEAR(centered.mean(), 0.0, 0.06);  // within one bin width
  EXPECT_NEAR(centered.integral(), 1.0, 1e-9);
}

TEST(BinnedPdf, CdfIsMonotoneReachingOne) {
  Rng rng(3);
  BinnedPdf pdf(Axis(0.0, 1.0, 50));
  for (int i = 0; i < 1000; ++i) pdf.add(rng.uniform());
  pdf.normalize();
  const std::vector<double> cdf = pdf.cdf();
  for (std::size_t i = 1; i < cdf.size(); ++i) EXPECT_GE(cdf[i], cdf[i - 1]);
  EXPECT_NEAR(cdf.back(), 1.0, 1e-9);
}

TEST(BinnedPdf, QuantileInvertsTheCdf) {
  Rng rng(4);
  BinnedPdf pdf(Axis(0.0, 1.0, 100));
  for (int i = 0; i < 100000; ++i) pdf.add(rng.uniform());
  pdf.normalize();
  EXPECT_NEAR(pdf.quantile(0.5), 0.5, 0.02);
  EXPECT_NEAR(pdf.quantile(0.95), 0.95, 0.02);
  EXPECT_THROW(pdf.quantile(1.5), InvalidArgument);
}

TEST(BinnedPdf, QuantileOfEmptyThrows) {
  const BinnedPdf pdf(Axis(0.0, 1.0, 10));
  EXPECT_THROW(pdf.quantile(0.5), InvalidArgument);
}

TEST(BinnedPdf, AccumulateRequiresSameAxis) {
  BinnedPdf a(Axis(0.0, 1.0, 10));
  const BinnedPdf b(Axis(0.0, 2.0, 10));
  EXPECT_THROW(a.accumulate(b, 1.0), InvalidArgument);
}

TEST(BinnedPdf, ArgmaxFindsMode) {
  BinnedPdf pdf(Axis(0.0, 10.0, 10));
  pdf.add(3.5, 1.0);
  pdf.add(7.5, 5.0);
  EXPECT_EQ(pdf.argmax(), 7u);
}

TEST(MixtureAverage, EquallyWeightedPair) {
  const Axis axis(0.0, 1.0, 2);
  BinnedPdf a(axis), b(axis);
  a.add(0.25);  // all mass in bin 0
  b.add(0.75);  // all mass in bin 1
  a.normalize();
  b.normalize();
  const std::vector<BinnedPdf> pdfs{a, b};
  const std::vector<double> weights{1.0, 1.0};
  const BinnedPdf avg = mixture_average(pdfs, weights);
  EXPECT_NEAR(avg[0], avg[1], 1e-12);
  EXPECT_NEAR(avg.integral(), 1.0, 1e-12);
}

TEST(MixtureAverage, WeightsBiasTheResult) {
  const Axis axis(0.0, 1.0, 2);
  BinnedPdf a(axis), b(axis);
  a.add(0.25);
  b.add(0.75);
  a.normalize();
  b.normalize();
  const std::vector<BinnedPdf> pdfs{a, b};
  const std::vector<double> weights{3.0, 1.0};
  const BinnedPdf avg = mixture_average(pdfs, weights);
  EXPECT_NEAR(avg[0] / (avg[0] + avg[1]), 0.75, 1e-12);
}

TEST(MixtureAverage, RejectsZeroTotalWeight) {
  const Axis axis(0.0, 1.0, 2);
  BinnedPdf a(axis);
  a.add(0.25);
  const std::vector<BinnedPdf> pdfs{a};
  const std::vector<double> weights{0.0};
  EXPECT_THROW(mixture_average(pdfs, weights), InvalidArgument);
}

TEST(BinnedMeanCurve, PerBinWeightedMean) {
  BinnedMeanCurve curve(Axis(0.0, 10.0, 10));
  curve.add(1.5, 10.0, 1.0);
  curve.add(1.5, 20.0, 3.0);
  EXPECT_DOUBLE_EQ(curve.value(1), 17.5);
  EXPECT_DOUBLE_EQ(curve.weight(1), 4.0);
  EXPECT_DOUBLE_EQ(curve.value(0), 0.0);  // empty bin
}

TEST(BinnedMeanCurve, PointsSkipEmptyBins) {
  BinnedMeanCurve curve(Axis(0.0, 10.0, 10));
  curve.add(0.5, 1.0);
  curve.add(9.5, 2.0);
  const auto points = curve.points();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0].coord, 0.5);
  EXPECT_DOUBLE_EQ(points[1].value, 2.0);
}

TEST(BinnedMeanCurve, AccumulateImplementsEq1) {
  // Eq. (1): v(d) = sum_c w_c v_c(d) / sum_c w_c per bin.
  const Axis axis(0.0, 10.0, 10);
  BinnedMeanCurve a(axis), b(axis);
  a.add(2.5, 10.0);   // bin 2, value 10, weight 1
  b.add(2.5, 30.0);   // bin 2, value 30, weight 1
  BinnedMeanCurve merged(axis);
  merged.accumulate(a, 1.0);
  merged.accumulate(b, 3.0);  // b triple-weighted
  EXPECT_DOUBLE_EQ(merged.value(2), (10.0 + 3.0 * 30.0) / 4.0);
}

TEST(WeightedAverageCurves, MatchesManualAccumulate) {
  const Axis axis(0.0, 10.0, 10);
  BinnedMeanCurve a(axis), b(axis);
  a.add(1.0, 5.0);
  b.add(1.0, 15.0);
  const std::vector<BinnedMeanCurve> curves{a, b};
  const std::vector<double> weights{1.0, 1.0};
  const BinnedMeanCurve avg = weighted_average(curves, weights);
  EXPECT_DOUBLE_EQ(avg.value(1), 10.0);
}

}  // namespace
}  // namespace mtd
