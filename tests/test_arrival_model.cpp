#include "core/arrival_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.hpp"
#include "common/time_utils.hpp"
#include "test_helpers.hpp"

namespace mtd {
namespace {

using test::small_dataset;

const ArrivalModel& fitted_model() {
  static const ArrivalModel model = ArrivalModel::fit(small_dataset());
  return model;
}

TEST(ArrivalModel, OneClassPerDecile) {
  EXPECT_EQ(fitted_model().classes().size(), kNumDeciles);
}

TEST(ArrivalModel, PeakMeansRecoverDecileRates) {
  const auto& network = test::small_network();
  for (std::uint8_t d = 0; d < kNumDeciles; ++d) {
    const double fitted = fitted_model().class_model(d).peak_mu;
    const double planted = network.decile_peak_rate(d);
    // The day-phase mean includes the sub-unity activity shoulder minutes,
    // so the fit sits slightly below the planted noon rate.
    EXPECT_GT(fitted, 0.75 * planted) << "decile " << int(d);
    EXPECT_LT(fitted, 1.15 * planted) << "decile " << int(d);
  }
}

TEST(ArrivalModel, PeakMeansGrowAcrossDeciles) {
  double prev = 0.0;
  for (const auto& report : fitted_model().classes()) {
    EXPECT_GT(report.model.peak_mu, prev);
    prev = report.model.peak_mu;
  }
}

TEST(ArrivalModel, SigmaOverMuNearOneTenth) {
  // Sec. 5.1: sigma ~= mu / 10 across all classes. The empirical ratio
  // includes circadian modulation, so allow some slack.
  for (const auto& report : fitted_model().classes()) {
    EXPECT_GT(report.sigma_over_mu, 0.05);
    EXPECT_LT(report.sigma_over_mu, 0.35);
    EXPECT_DOUBLE_EQ(report.model.peak_sigma, report.model.peak_mu / 10.0);
  }
}

TEST(ArrivalModel, OffpeakScaleGrowsWithDecile) {
  double prev = 0.0;
  for (const auto& report : fitted_model().classes()) {
    EXPECT_GT(report.model.offpeak_scale, prev * 0.8);
    prev = report.model.offpeak_scale;
  }
  EXPECT_GT(fitted_model().classes().back().model.offpeak_scale,
            5.0 * fitted_model().classes().front().model.offpeak_scale);
}

TEST(ArrivalModel, DayEmdIsSmall) {
  // The Gaussian fit must sit close to the empirical daytime PDF; the EMD
  // is in units of sessions/minute, so compare it to the class mean.
  for (const auto& report : fitted_model().classes()) {
    EXPECT_LT(report.day_emd, 0.25 * report.model.peak_mu);
  }
}

TEST(ArrivalModel, SampleReproducesDayNightContrast) {
  const ArrivalClassModel& cls = fitted_model().class_model(7);
  Rng rng(3);
  RunningStats day, night;
  for (int i = 0; i < 20000; ++i) {
    day.add(static_cast<double>(cls.sample(true, rng)));
    night.add(static_cast<double>(cls.sample(false, rng)));
  }
  EXPECT_NEAR(day.mean(), cls.peak_mu, 0.05 * cls.peak_mu);
  EXPECT_NEAR(day.stddev(), cls.peak_sigma, 0.25 * cls.peak_sigma);
  EXPECT_LT(night.mean(), day.mean() / 3.0);
}

TEST(ArrivalModel, SampleMinuteUsesCircadianPhase) {
  const ArrivalClassModel& cls = fitted_model().class_model(8);
  Rng rng(4);
  RunningStats noon, late_night;
  for (int i = 0; i < 5000; ++i) {
    noon.add(static_cast<double>(cls.sample_minute(12 * 60, rng)));
    late_night.add(static_cast<double>(cls.sample_minute(3 * 60, rng)));
  }
  EXPECT_GT(noon.mean(), 3.0 * late_night.mean());
}

TEST(ArrivalModel, ServiceSamplingMatchesShares) {
  const ArrivalModel& model = fitted_model();
  Rng rng(5);
  std::vector<std::size_t> counts(model.service_shares().size(), 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[model.sample_service(rng)];
  for (std::size_t s = 0; s < counts.size(); ++s) {
    const double expected = model.service_shares()[s];
    if (expected < 0.01) continue;
    EXPECT_NEAR(static_cast<double>(counts[s]) / n, expected,
                0.1 * expected + 0.002);
  }
}

TEST(ArrivalModel, FromPartsRoundTrip) {
  const ArrivalModel& original = fitted_model();
  std::vector<ArrivalFitReport> classes(original.classes().begin(),
                                        original.classes().end());
  const ArrivalModel rebuilt = ArrivalModel::from_parts(
      std::move(classes), original.service_shares());
  for (std::uint8_t d = 0; d < kNumDeciles; ++d) {
    EXPECT_DOUBLE_EQ(rebuilt.class_model(d).peak_mu,
                     original.class_model(d).peak_mu);
  }
  // Service sampling still works after the rebuild.
  Rng rng(6);
  EXPECT_LT(rebuilt.sample_service(rng), original.service_shares().size());
}

TEST(ArrivalModel, FromPartsValidatesInput) {
  EXPECT_THROW(ArrivalModel::from_parts({}, {0.5}), InvalidArgument);
  EXPECT_THROW(ArrivalModel::from_parts({ArrivalFitReport{}}, {}),
               InvalidArgument);
  EXPECT_THROW(ArrivalModel::from_parts({ArrivalFitReport{}}, {0.0}),
               InvalidArgument);
}

// At a low rate_scale some decile sees no daytime arrivals at all: its
// peak_mu clamps to 1e-3 and the fitted Gaussian underflows at every bin
// centre. The fit must still succeed and score the class against a
// point mass at its peak.
TEST(ArrivalModel, FitSurvivesDecileWithNoDaytimeArrivals) {
  NetworkConfig net_config;
  net_config.num_bs = 30;
  Rng rng(5);
  const Network network = Network::build(net_config, rng);
  TraceConfig trace;
  trace.num_days = 2;
  trace.rate_scale = 0.25;
  const MeasurementDataset dataset = collect_dataset(network, trace);
  ASSERT_EQ(dataset.decile_arrivals(0).day_stats.mean(), 0.0);

  const ArrivalModel model = ArrivalModel::fit(dataset);
  const ArrivalFitReport& quiet = model.classes()[0];
  EXPECT_DOUBLE_EQ(quiet.model.peak_mu, 1e-3);
  EXPECT_TRUE(std::isfinite(quiet.day_emd));
  EXPECT_GE(quiet.day_emd, 0.0);
}

TEST(ArrivalModel, BadDecileThrows) {
  EXPECT_THROW(fitted_model().class_model(10), InvalidArgument);
}

}  // namespace
}  // namespace mtd
