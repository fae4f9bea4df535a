#include "analysis/bs_level.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/time_utils.hpp"
#include "events/session_source.hpp"
#include "test_helpers.hpp"

namespace mtd {
namespace {

const ModelRegistry& registry() {
  static const ModelRegistry r = ModelRegistry::fit(test::small_dataset());
  return r;
}

BsLevelSeries series_for_decile(std::uint8_t decile, std::size_t days,
                                std::uint64_t seed) {
  const ModelDrawSource source(registry());
  const BsTrafficGenerator generator(
      registry().arrivals().class_model(decile), registry().arrivals(),
      source);
  Rng rng(seed);
  return aggregate_bs_series(generator, days, rng);
}

TEST(BsLevelSeries, OneValuePerMinute) {
  const BsLevelSeries series = series_for_decile(5, 1, 1);
  EXPECT_EQ(series.volume_mb.size(), kMinutesPerDay);
  EXPECT_GT(series.total_mb(), 0.0);
  EXPECT_GE(series.peak_mb(), series.total_mb() / kMinutesPerDay);
}

TEST(BsLevelSeries, CircadianShapeEmerges) {
  // The BS-level aggregate inherits the diurnal rhythm that drives the
  // session arrivals: strong day/night contrast, most volume in daytime.
  const BsLevelSeries series = series_for_decile(6, 3, 2);
  EXPECT_GT(series.day_night_ratio(), 3.0);
  EXPECT_GT(series.window_fraction(8, 23), 0.7);
  EXPECT_LT(series.window_fraction(0, 6), 0.15);
}

TEST(BsLevelSeries, CircadianAgreementIsHigh) {
  const BsLevelSeries series = series_for_decile(7, 3, 3);
  EXPECT_GT(circadian_agreement(series), 0.6);
}

TEST(BsLevelSeries, BusierDecilesCarryMoreTraffic) {
  const BsLevelSeries light = series_for_decile(1, 2, 4);
  const BsLevelSeries heavy = series_for_decile(9, 2, 4);
  EXPECT_GT(heavy.total_mb(), 5.0 * light.total_mb());
}

TEST(BsLevelSeries, WindowFractionValidation) {
  const BsLevelSeries series = series_for_decile(4, 1, 5);
  EXPECT_THROW((void)series.window_fraction(10, 10), InvalidArgument);
  EXPECT_THROW((void)series.window_fraction(2, 30), InvalidArgument);
  EXPECT_NEAR(series.window_fraction(0, 24), 1.0, 1e-9);
}

TEST(BsLevelSeries, AggregateValidatesInput) {
  const ModelDrawSource source(registry());
  const BsTrafficGenerator generator(
      registry().arrivals().class_model(3), registry().arrivals(), source);
  Rng rng(6);
  EXPECT_THROW((void)aggregate_bs_series(generator, 0, rng),
               InvalidArgument);
}

/// The BS-level series of one session at BS 3, day 0, minute 1000, read
/// back through a MemorySessionSource.
BsLevelSeries series_of_one_session(double duration_s, double volume_mb) {
  Session session;
  session.bs = 3;
  session.minute_of_day = 1000;
  session.duration_s = duration_s;
  session.volume_mb = volume_mb;
  MemorySessionSource source(
      {StreamEvent{{3, 0, 1000, 0}, SessionEvent{session}}});
  return bs_series_from_source(source, 3, 1);
}

// A hostile duration must neither hang the minute walk nor smear NaN over
// the series: a lifetime of many days adds its whole days in one pass, and
// a duration that is not finite and positive is rejected, naming the
// session.
TEST(BsLevelSeries, SpreadSessionTerminatesForAnyDuration) {
  const auto t0 = std::chrono::steady_clock::now();
  const BsLevelSeries huge = series_of_one_session(6e10, 250.0);
  ASSERT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count(),
            0.1);
  EXPECT_NEAR(huge.total_mb(), 250.0, 250.0 * 1e-9);
  // Whole days fill every minute alike; the 640-minute remainder of the
  // 1e9-minute lifetime starts at minute 1000 and wraps past midnight.
  EXPECT_GT(huge.volume_mb[1000], huge.volume_mb[999]);
  EXPECT_GT(huge.volume_mb[199], huge.volume_mb[200]);

  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), 0.0,
                           -30.0, std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(bad);
    try {
      (void)series_of_one_session(bad, 1.0);
      ADD_FAILURE() << "duration " << bad << " was accepted";
    } catch (const InvalidArgument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("BS 3"), std::string::npos) << msg;
      EXPECT_NE(msg.find("day 0"), std::string::npos) << msg;
      EXPECT_NE(msg.find("minute 1000"), std::string::npos) << msg;
    }
  }
}

}  // namespace
}  // namespace mtd
