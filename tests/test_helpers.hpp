// Shared fixtures: small synthetic datasets reused across test suites.
//
// Building a MeasurementDataset is the expensive part of most integration
// tests, so the helpers below construct each configuration once per process
// and hand out const references.
#pragma once

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "dataset/measurement.hpp"
#include "events/event_sink.hpp"
#include "io/json.hpp"

namespace mtd::test {

/// The 2-day trace behind tiny_dataset().
inline TraceConfig tiny_trace() {
  TraceConfig trace;
  trace.num_days = 2;
  trace.seed = 321;
  return trace;
}

/// A tiny network + 2-day trace. Fast to build; enough sessions for the
/// popular services only.
inline const MeasurementDataset& tiny_dataset() {
  static const MeasurementDataset dataset = [] {
    NetworkConfig net_config;
    net_config.num_bs = 10;
    net_config.last_decile_rate = 30.0;
    Rng rng(123);
    static const Network network = Network::build(net_config, rng);
    return collect_dataset(network, tiny_trace());
  }();
  return dataset;
}

/// A small-but-representative dataset: enough sessions that every catalogue
/// service can be fitted, spanning a full week (both day types), all
/// regions, cities and RATs.
inline const MeasurementDataset& small_dataset() {
  static const MeasurementDataset dataset = [] {
    NetworkConfig net_config;
    net_config.num_bs = 60;
    net_config.last_decile_rate = 50.0;
    Rng rng(7);
    static const Network network = Network::build(net_config, rng);
    TraceConfig trace;
    trace.num_days = 7;
    trace.seed = 99;
    return collect_dataset(network, trace);
  }();
  return dataset;
}

/// The network backing small_dataset().
inline const Network& small_network() { return small_dataset().network(); }

/// The bins of a PDF, for whole-array comparisons.
inline std::vector<double> bins_of(const BinnedPdf& pdf) {
  const std::span<const double> density = pdf.density();
  return {density.begin(), density.end()};
}

/// A mean curve's per-bin values, then its per-bin weights.
inline std::vector<double> values_and_weights_of(const BinnedMeanCurve& curve) {
  std::vector<double> out;
  out.reserve(2 * curve.size());
  for (std::size_t i = 0; i < curve.size(); ++i) out.push_back(curve.value(i));
  for (std::size_t i = 0; i < curve.size(); ++i) out.push_back(curve.weight(i));
  return out;
}

/// Asserts that two finalized datasets are bit-identical: every accessor
/// is compared with exact equality, floating-point values included — slice
/// PDFs, totals and duration-volume curves, decile arrival PDFs and
/// moments, shares and their CVs, and totals.
inline void expect_datasets_identical(const MeasurementDataset& a,
                                      const MeasurementDataset& b) {
  ASSERT_EQ(a.num_services(), b.num_services());
  EXPECT_EQ(a.num_days(), b.num_days());
  EXPECT_EQ(a.total_sessions(), b.total_sessions());
  EXPECT_EQ(a.total_volume_mb(), b.total_volume_mb());
  EXPECT_EQ(a.session_shares(), b.session_shares());
  EXPECT_EQ(a.traffic_shares(), b.traffic_shares());
  EXPECT_EQ(a.session_share_cv(), b.session_share_cv());
  EXPECT_EQ(a.traffic_share_cv(), b.traffic_share_cv());
  for (std::size_t s = 0; s < a.num_services(); ++s) {
    for (std::size_t sl = 0; sl < kNumSlices; ++sl) {
      const auto slice = static_cast<Slice>(sl);
      const ServiceSliceStats& x = a.slice(s, slice);
      const ServiceSliceStats& y = b.slice(s, slice);
      EXPECT_EQ(x.sessions, y.sessions) << s << "/" << to_string(slice);
      EXPECT_EQ(x.volume_mb, y.volume_mb) << s << "/" << to_string(slice);
      EXPECT_EQ(bins_of(x.volume_pdf), bins_of(y.volume_pdf))
          << s << "/" << to_string(slice);
      EXPECT_EQ(values_and_weights_of(x.dv_curve),
                values_and_weights_of(y.dv_curve))
          << s << "/" << to_string(slice);
    }
  }
  for (std::uint8_t d = 0; d < kNumDeciles; ++d) {
    const DecileArrivalStats& x = a.decile_arrivals(d);
    const DecileArrivalStats& y = b.decile_arrivals(d);
    EXPECT_EQ(bins_of(x.count_pdf), bins_of(y.count_pdf)) << int{d};
    EXPECT_EQ(bins_of(x.day_pdf), bins_of(y.day_pdf)) << int{d};
    for (const auto& [p, q] : {std::pair{&x.day_stats, &y.day_stats},
                               std::pair{&x.night_stats, &y.night_stats}}) {
      EXPECT_EQ(p->count(), q->count()) << int{d};
      EXPECT_EQ(p->mean(), q->mean()) << int{d};
      EXPECT_EQ(p->variance(), q->variance()) << int{d};
    }
  }
}

/// Records each BS's session sequence (content and order) plus the number
/// of minute events, so two runs can be compared session by session.
struct PerBsRecorder final : EventSink {
  std::vector<std::vector<Session>> per_bs;
  std::uint64_t minutes = 0;

  explicit PerBsRecorder(std::size_t num_bs) : per_bs(num_bs) {}

  void on_event(const StreamEvent& event) override {
    if (const auto* s = std::get_if<SessionEvent>(&event.payload)) {
      per_bs[s->session.bs].push_back(s->session);
    } else if (event.kind() == EventKind::kMinute) {
      ++minutes;
    }
  }
};

/// Asserts that two recorders hold the same per-BS session sequences.
inline void expect_identical_streams(const PerBsRecorder& a,
                                     const PerBsRecorder& b) {
  ASSERT_EQ(a.per_bs.size(), b.per_bs.size());
  for (std::size_t bs = 0; bs < a.per_bs.size(); ++bs) {
    ASSERT_EQ(a.per_bs[bs].size(), b.per_bs[bs].size()) << "bs " << bs;
    for (std::size_t i = 0; i < a.per_bs[bs].size(); ++i) {
      const Session& x = a.per_bs[bs][i];
      const Session& y = b.per_bs[bs][i];
      EXPECT_EQ(x.day, y.day);
      EXPECT_EQ(x.minute_of_day, y.minute_of_day);
      EXPECT_EQ(x.service, y.service);
      EXPECT_DOUBLE_EQ(x.duration_s, y.duration_s);
      EXPECT_DOUBLE_EQ(x.volume_mb, y.volume_mb);
    }
  }
}

/// The node of `doc` at `path`: object keys, where an array value steps
/// into its first element. For tests that mutate one field of a document.
inline Json& json_node(Json& doc, const std::vector<const char*>& path) {
  Json* node = &doc;
  for (const char* key : path) {
    node = &node->as_object().at(key);
    if (node->is_array()) node = &node->as_array().at(0);
  }
  return *node;
}

/// Whether `run` throws InvalidArgument whose message names `field`.
template <typename Run>
::testing::AssertionResult rejects(const Run& run, const std::string& field) {
  try {
    run();
  } catch (const InvalidArgument& e) {
    if (std::string(e.what()).find(field) != std::string::npos) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "the message does not name " << field << ": " << e.what();
  }
  return ::testing::AssertionFailure() << "accepted a bad " << field;
}

}  // namespace mtd::test
