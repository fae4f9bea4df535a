#include "usecases/slicing.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>

#include "common/time_utils.hpp"
#include "test_helpers.hpp"

namespace mtd {
namespace {

const ModelRegistry& registry() {
  static const ModelRegistry r = ModelRegistry::fit(test::small_dataset());
  return r;
}

SlicingConfig quick_config() {
  SlicingConfig config;
  config.num_antennas = 4;
  config.eval_days = 2;
  config.calibration_days = 2;
  config.seed = 17;
  return config;
}

const SlicingResult& quick_result() {
  static const SlicingResult result = run_slicing(registry(), quick_config());
  return result;
}

TEST(Slicing, ThreeStrategiesEvaluated) {
  const auto& result = quick_result();
  ASSERT_EQ(result.strategies.size(), 3u);
  EXPECT_NE(result.strategies[0].name.find("ours"), std::string::npos);
  EXPECT_NE(result.strategies[1].name.find("bm a"), std::string::npos);
  EXPECT_NE(result.strategies[2].name.find("bm b"), std::string::npos);
}

TEST(Slicing, SatisfactionIsAFraction) {
  for (const auto& strategy : quick_result().strategies) {
    EXPECT_GE(strategy.mean_satisfied, 0.0);
    EXPECT_LE(strategy.mean_satisfied, 1.0);
    EXPECT_GE(strategy.stddev_satisfied, 0.0);
    EXPECT_GE(strategy.sla_met_fraction, 0.0);
    EXPECT_LE(strategy.sla_met_fraction, 1.0);
    EXPECT_GT(strategy.total_allocated_mbps, 0.0);
  }
}

TEST(Slicing, OurModelMeetsTheSlaOnAverage) {
  // Table 2: the session-level model is the only one achieving ~95%.
  const auto& ours = quick_result().strategies[0];
  EXPECT_GT(ours.mean_satisfied, 0.93);
}

TEST(Slicing, OurModelBeatsTheCategoryBenchmarks) {
  // Table 2 criteria: higher mean time-without-drops and lower variability
  // across slices (the paper reports 95.15% +-2.1 vs 89.8% +-4.3 and
  // 87.25% +-4.2). The benchmarks trivially over-provision small slices
  // (uniform intra-category split), so per-slice means - not the fraction
  // of slices above the SLA - are the discriminating metric.
  const auto& result = quick_result();
  EXPECT_GT(result.strategies[0].mean_satisfied,
            result.strategies[1].mean_satisfied);
  EXPECT_GT(result.strategies[0].mean_satisfied,
            result.strategies[2].mean_satisfied);
  EXPECT_LT(result.strategies[0].stddev_satisfied,
            result.strategies[1].stddev_satisfied);
}

TEST(Slicing, Fig12SeriesSpansTheHorizon) {
  const auto& result = quick_result();
  EXPECT_EQ(result.fig12_demand_mbps.size(),
            quick_config().eval_days * kMinutesPerDay);
  double peak = 0.0;
  for (double v : result.fig12_demand_mbps) {
    EXPECT_GE(v, 0.0);
    peak = std::max(peak, v);
  }
  EXPECT_GT(peak, 0.0);
  // The model allocation sits below the extreme demand peaks (robustness
  // against outliers, Fig. 12) but above zero.
  EXPECT_GT(result.strategies[0].fig12_allocation_mbps, 0.0);
  EXPECT_LT(result.strategies[0].fig12_allocation_mbps, peak);
}

TEST(Slicing, DeterministicForFixedSeed) {
  const SlicingResult again = run_slicing(registry(), quick_config());
  EXPECT_DOUBLE_EQ(again.strategies[0].mean_satisfied,
                   quick_result().strategies[0].mean_satisfied);
  EXPECT_DOUBLE_EQ(again.strategies[2].total_allocated_mbps,
                   quick_result().strategies[2].total_allocated_mbps);
}

TEST(Slicing, RejectsOutOfRangeConfig) {
  // Both entry points check the config before any job starts; the source
  // is never scanned.
  MemorySessionSource empty({});
  const auto check = [&](const SlicingConfig& config,
                         const std::string& field) {
    const auto monte_carlo = [&] { (void)run_slicing(registry(), config); };
    const auto from_source = [&] {
      (void)run_slicing_from_source(empty, registry(), config);
    };
    return test::rejects(monte_carlo, field) &&
           test::rejects(from_source, field);
  };
  SlicingConfig config = quick_config();
  config.eval_days = 0;  // an all-zero Table 2
  ASSERT_TRUE(check(config, "eval_days"));
  config = quick_config();
  config.calibration_days = 0;  // no sample to take a quantile of
  ASSERT_TRUE(check(config, "calibration_days"));
  config = quick_config();
  config.num_antennas = 0;
  ASSERT_TRUE(check(config, "num_antennas"));
  config = quick_config();
  config.sla_quantile = 1.5;
  ASSERT_TRUE(check(config, "sla_quantile"));
  config = quick_config();
  config.fig12_antenna = config.num_antennas;  // reads past the antennas
  ASSERT_TRUE(check(config, "fig12_antenna"));
  config = quick_config();
  config.fig12_service = "NoSuchService";
  ASSERT_TRUE(check(config, "NoSuchService"));
  // Scan days are 16-bit: day 65536 would wrap to day 0.
  config = quick_config();
  config.eval_days = 65537;
  ASSERT_TRUE(test::rejects(
      [&] { (void)run_slicing_from_source(empty, registry(), config); },
      "eval_days"));
}

/// A source whose third scan throws; it also records whether two scans
/// ever overlapped.
class ThirdScanFails final : public SessionSource {
 public:
  std::uint64_t scan(const SourceQuery& query,
                     const std::function<void(const StreamEvent&)>& fn)
      override {
    if (in_scan_.exchange(true)) overlapped_ = true;
    const int n = ++scans_;
    if (n == 3) {
      in_scan_ = false;
      throw IoError("third scan failed");
    }
    const std::uint64_t delivered = inner_.scan(query, fn);
    in_scan_ = false;
    return delivered;
  }

  [[nodiscard]] int scans() const noexcept { return scans_; }
  [[nodiscard]] bool overlapped() const noexcept { return overlapped_; }

 private:
  MemorySessionSource inner_{{}};
  std::atomic<bool> in_scan_{false};
  std::atomic<bool> overlapped_{false};
  std::atomic<int> scans_{0};
};

// The scans run as a job of the calibration fork; a failing scan reaches the
// caller as the source threw it, once the fork has joined, and stops the
// scan loop.
TEST(Slicing, SourceScanErrorReachesTheCaller) {
  ThirdScanFails source;
  try {
    (void)run_slicing_from_source(source, registry(), quick_config());
    FAIL() << "the scan error was swallowed";
  } catch (const IoError& e) {
    EXPECT_STREQ(e.what(), "third scan failed");
  }
  EXPECT_EQ(source.scans(), 3);
  EXPECT_FALSE(source.overlapped());
}

TEST(Slicing, RejectsEmptyConfig) {
  SlicingConfig config = quick_config();
  config.num_antennas = 0;
  EXPECT_THROW(run_slicing(registry(), config), InvalidArgument);
}

}  // namespace
}  // namespace mtd
