#include "dataset/measurement.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/time_utils.hpp"
#include "engine/engine.hpp"
#include "events/event_sink.hpp"
#include "math/metrics.hpp"
#include "test_helpers.hpp"

namespace mtd {
namespace {

using test::small_dataset;
using test::tiny_dataset;

TEST(MeasurementDataset, SessionSharesSumToOne) {
  const auto& ds = small_dataset();
  double total = 0.0;
  for (double s : ds.session_shares()) total += s;
  EXPECT_NEAR(total, 1.0, 1e-9);
  total = 0.0;
  for (double s : ds.traffic_shares()) total += s;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(MeasurementDataset, TotalSliceEqualsSumOfSessions) {
  const auto& ds = small_dataset();
  std::uint64_t per_service_total = 0;
  for (std::size_t s = 0; s < ds.num_services(); ++s) {
    per_service_total += ds.slice(s, Slice::kTotal).sessions;
  }
  EXPECT_EQ(per_service_total, ds.total_sessions());
}

TEST(MeasurementDataset, DayTypeSlicesPartitionTotal) {
  const auto& ds = small_dataset();
  for (std::size_t s = 0; s < ds.num_services(); ++s) {
    const auto& total = ds.slice(s, Slice::kTotal);
    const auto& workday = ds.slice(s, Slice::kWorkday);
    const auto& weekend = ds.slice(s, Slice::kWeekend);
    EXPECT_EQ(total.sessions, workday.sessions + weekend.sessions);
    EXPECT_NEAR(total.volume_mb, workday.volume_mb + weekend.volume_mb,
                1e-6 * std::max(1.0, total.volume_mb));
  }
}

TEST(MeasurementDataset, RegionSlicesPartitionTotal) {
  const auto& ds = small_dataset();
  for (std::size_t s = 0; s < ds.num_services(); ++s) {
    const std::uint64_t sum = ds.slice(s, Slice::kUrban).sessions +
                              ds.slice(s, Slice::kSemiUrban).sessions +
                              ds.slice(s, Slice::kRural).sessions;
    EXPECT_EQ(sum, ds.slice(s, Slice::kTotal).sessions);
  }
}

TEST(MeasurementDataset, RatSlicesPartitionTotal) {
  const auto& ds = small_dataset();
  for (std::size_t s = 0; s < ds.num_services(); ++s) {
    const std::uint64_t sum = ds.slice(s, Slice::k4G).sessions +
                              ds.slice(s, Slice::k5G).sessions;
    EXPECT_EQ(sum, ds.slice(s, Slice::kTotal).sessions);
  }
}

TEST(MeasurementDataset, SessionSharesTrackTable1) {
  const auto& ds = small_dataset();
  const std::vector<double> observed = ds.session_shares();
  const std::vector<double> planted = normalized_session_shares();
  for (std::size_t s = 0; s < observed.size(); ++s) {
    if (planted[s] < 0.005) continue;
    EXPECT_NEAR(observed[s] / planted[s], 1.0, 0.1)
        << service_catalog()[s].name;
  }
}

TEST(MeasurementDataset, SessionShareCvIsSmallAndStable) {
  // Table 1: the CV of the session share is far more stable than that of
  // the traffic share.
  const auto& ds = small_dataset();
  const std::vector<double> session_cv = ds.session_share_cv();
  const std::vector<double> traffic_cv = ds.traffic_share_cv();
  const std::vector<double> shares = ds.session_shares();
  double mean_scv = 0.0, mean_tcv = 0.0;
  std::size_t counted = 0;
  for (std::size_t s = 0; s < session_cv.size(); ++s) {
    if (shares[s] < 0.01) continue;  // popular services only
    mean_scv += session_cv[s];
    mean_tcv += traffic_cv[s];
    ++counted;
  }
  ASSERT_GT(counted, 0u);
  mean_scv /= static_cast<double>(counted);
  mean_tcv /= static_cast<double>(counted);
  EXPECT_LT(mean_scv, mean_tcv);
}

TEST(MeasurementDataset, DecileArrivalStatsOrdered) {
  const auto& ds = small_dataset();
  double prev = 0.0;
  for (std::uint8_t d = 0; d < kNumDeciles; ++d) {
    const auto& stats = ds.decile_arrivals(d);
    EXPECT_GT(stats.day_stats.count(), 0u);
    EXPECT_GT(stats.day_stats.mean(), prev);
    prev = stats.day_stats.mean();
    // Night demand well below day demand in every decile.
    EXPECT_LT(stats.night_stats.mean(), stats.day_stats.mean() / 3.0);
  }
  EXPECT_THROW(ds.decile_arrivals(10), InvalidArgument);
}

TEST(MeasurementDataset, VolumePdfOfNetflixPeaksInTensOfMb) {
  const auto& ds = small_dataset();
  const std::size_t netflix = service_index("Netflix");
  const BinnedPdf pdf = ds.slice(netflix, Slice::kTotal).normalized_pdf();
  // The global mode may be the transient lobe; the planted main lobe at
  // ~40 MB must still carry substantial mass: P(10 MB..250 MB) > 25%.
  double mass = 0.0;
  for (std::size_t i = 0; i < pdf.size(); ++i) {
    const double u = pdf.axis().center(i);
    if (u > 1.0 && u < 2.4) mass += pdf[i] * pdf.axis().width();
  }
  EXPECT_GT(mass, 0.25);
}

TEST(MeasurementDataset, DurationCurveIncreasesWithDuration) {
  const auto& ds = small_dataset();
  const std::size_t netflix = service_index("Netflix");
  const auto points = ds.slice(netflix, Slice::kTotal).dv_curve.points();
  ASSERT_GT(points.size(), 5u);
  // Volume at long durations far exceeds volume at short durations.
  EXPECT_GT(points.back().value, 10.0 * points.front().value);
}

/// Every (BS, day) cell of tiny_dataset() as its own one-cell dataset: the
/// per-cell statistics w, F and v of Sec. 3.2.
std::vector<MeasurementDataset> tiny_cells() {
  const MeasurementDataset& ds = tiny_dataset();
  const TraceGenerator generator(ds.network(), test::tiny_trace());
  std::vector<MeasurementDataset> cells;
  for (const BaseStation& bs : ds.network().base_stations()) {
    for (std::size_t day = 0; day < ds.num_days(); ++day) {
      MeasurementDataset& cell =
          cells.emplace_back(ds.network(), ds.num_days());
      generator.run_bs_day(bs, day, cell);
      cell.finalize();
    }
  }
  return cells;
}

TEST(MeasurementDataset, Eq2AverageMatchesDirectAggregation) {
  // Averaging per-cell PDFs weighted by w_s^{c,t} (Eq. 2) reproduces the
  // directly-accumulated total PDF.
  const auto& ds = tiny_dataset();
  const std::size_t fb = service_index("Facebook");
  std::vector<BinnedPdf> pdfs;
  std::vector<double> weights;
  for (const MeasurementDataset& cell : tiny_cells()) {
    const ServiceSliceStats& stats = cell.slice(fb, Slice::kTotal);
    if (stats.sessions == 0) continue;
    pdfs.push_back(stats.normalized_pdf());
    weights.push_back(static_cast<double>(stats.sessions));
  }
  ASSERT_GT(pdfs.size(), 2u);
  const BinnedPdf averaged = mixture_average(pdfs, weights);
  const BinnedPdf direct = ds.slice(fb, Slice::kTotal).normalized_pdf();
  EXPECT_LT(emd(averaged, direct), 1e-9);
}

TEST(MeasurementDataset, Eq1AverageMatchesDirectAggregation) {
  const auto& ds = tiny_dataset();
  const std::size_t fb = service_index("Facebook");
  BinnedMeanCurve averaged(duration_axis());
  for (const MeasurementDataset& cell : tiny_cells()) {
    averaged.accumulate(cell.slice(fb, Slice::kTotal).dv_curve, 1.0);
  }
  const BinnedMeanCurve& direct = ds.slice(fb, Slice::kTotal).dv_curve;
  for (std::size_t i = 0; i < averaged.size(); ++i) {
    EXPECT_NEAR(averaged.value(i), direct.value(i),
                1e-9 * std::max(1.0, direct.value(i)));
  }
}

TEST(MeasurementDataset, SliceToStringNames) {
  EXPECT_STREQ(to_string(Slice::kTotal), "total");
  EXPECT_STREQ(to_string(Slice::kWeekend), "weekend");
  EXPECT_STREQ(to_string(Slice::kCity3), "city-3");
  EXPECT_STREQ(to_string(Slice::k5G), "5G");
}

/// A 10-BS network for the order tests.
Network order_network() {
  NetworkConfig nc;
  nc.num_bs = 10;
  nc.last_decile_rate = 25.0;
  Rng build_rng(9);
  return Network::build(nc, build_rng);
}

TEST(MeasurementDataset, CellKeyGoingBackwardsIsRejectedNamingBothKeys) {
  const Network network = order_network();
  MeasurementDataset dataset(network, 2);
  dataset.on_minute(network[4], 1, 0, 0);
  dataset.on_minute(network[4], 1, 1, 0);  // same cell: no check
  try {
    dataset.on_minute(network[4], 0, 2, 0);
    ADD_FAILURE() << "an earlier day of the same BS was accepted";
  } catch (const InvalidArgument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("(bs 4, day 0)"), std::string::npos) << what;
    EXPECT_NE(what.find("(bs 4, day 1)"), std::string::npos) << what;
  }
  try {
    Session session;
    session.bs = 2;
    session.day = 1;
    session.volume_mb = 1.0;
    session.duration_s = 10.0;
    dataset.on_session(session);
    ADD_FAILURE() << "an earlier BS was accepted";
  } catch (const InvalidArgument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("(bs 2, day 1)"), std::string::npos) << what;
    EXPECT_NE(what.find("(bs 4, day 1)"), std::string::npos) << what;
  }
}

TEST(MeasurementDataset, DayPastTheHorizonIsRejected) {
  const Network network = order_network();
  MeasurementDataset dataset(network, 2);
  EXPECT_THROW(dataset.on_minute(network[0], 2, 0, 0), InvalidArgument);
  Session session;
  session.bs = 0;
  session.day = 7;
  session.volume_mb = 1.0;
  session.duration_s = 10.0;
  EXPECT_THROW(dataset.on_session(session), InvalidArgument);
}

// The engine interleaves its BSs minute by minute, so a dataset fed straight
// from it sees a cell key go backwards as soon as a lower BS's next minute
// arrives. The run must fail rather than aggregate the interleaving; the
// engine reaches a dataset through a SessionSource instead.
TEST(MeasurementDataset, EngineFedStraightIntoTheDatasetFailsLoudly) {
  const Network network = order_network();
  TraceConfig trace;
  trace.num_days = 1;
  trace.seed = 123;
  EngineConfig config;
  config.num_workers = 2;
  StreamEngine engine(network, trace, config);
  MeasurementDataset dataset(network, trace.num_days);
  TraceSinkAdapter adapter(network, dataset);
  EXPECT_THROW((void)engine.run(adapter), InvalidArgument);
}

TEST(MeasurementDataset, VolumeAxisCoversExpectedRange) {
  const Axis v = volume_axis();
  EXPECT_DOUBLE_EQ(v.lo(), -4.0);
  EXPECT_DOUBLE_EQ(v.hi(), 4.0);
  const Axis d = duration_axis();
  EXPECT_DOUBLE_EQ(d.lo(), 0.0);
  EXPECT_GT(d.hi(), 4.0);
}

}  // namespace
}  // namespace mtd
