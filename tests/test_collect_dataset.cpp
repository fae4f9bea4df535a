// collect_dataset generates and aggregates each (BS, day) cell on its own
// parallel job and folds the finished cells in (BS, day) order. These tests hold it to
// the serial path — TraceGenerator::run into a fresh dataset, then
// finalize() — bit for bit, on networks smaller than, close to and larger
// than the host's thread count.
#include <gtest/gtest.h>

#include <vector>

#include "dataset/measurement.hpp"
#include "test_helpers.hpp"

namespace mtd {
namespace {

using test::expect_datasets_identical;

/// `n` hand-built BSs spread over the deciles, the first `heavy_first`
/// times as loaded as the rest.
Network make_network(std::size_t n, double heavy_first = 1.0) {
  std::vector<BaseStation> bss(n);
  for (std::size_t i = 0; i < n; ++i) {
    bss[i].decile = static_cast<std::uint8_t>((i * kNumDeciles) / n);
    bss[i].peak_rate = 5.0 + 3.0 * static_cast<double>(i % 7);
    bss[i].offpeak_scale = 0.25;
    bss[i].region = static_cast<Region>(i % 3);
    if (bss[i].region == Region::kUrban) {
      bss[i].city = static_cast<std::uint8_t>(i % kNumCities);
    }
    bss[i].rat = i % 2 == 0 ? Rat::k4G : Rat::k5G;
  }
  bss[0].peak_rate *= heavy_first;
  return Network::from_base_stations(std::move(bss));
}

Network build_network(std::size_t n) {
  NetworkConfig config;
  config.num_bs = n;
  config.last_decile_rate = 25.0;
  Rng rng(17);
  return Network::build(config, rng);
}

TraceConfig make_trace(std::size_t days, std::uint64_t seed) {
  TraceConfig trace;
  trace.num_days = days;
  trace.seed = seed;
  return trace;
}

/// The serial path: one thread generates every (BS, day) in order into the
/// dataset's own sink interface.
MeasurementDataset serial_dataset(const Network& network,
                                  const TraceConfig& trace) {
  MeasurementDataset dataset(network, trace.num_days);
  TraceGenerator(network, trace).run(dataset);
  dataset.finalize();
  return dataset;
}

void expect_matches_serial(const Network& network, const TraceConfig& trace) {
  const MeasurementDataset parallel = collect_dataset(network, trace);
  ASSERT_GT(parallel.total_sessions(), 0u);
  expect_datasets_identical(parallel, serial_dataset(network, trace));
}

TEST(CollectDataset, MatchesSerialGenerationOnOneBs) {
  expect_matches_serial(make_network(1), make_trace(2, 5));
}

TEST(CollectDataset, MatchesSerialGenerationOnFewerBssThanThreads) {
  expect_matches_serial(make_network(3), make_trace(2, 6));
}

TEST(CollectDataset, MatchesSerialGenerationOn40BssOver3Days) {
  expect_matches_serial(build_network(40), make_trace(3, 7));
}

// BS 0 carries most of the load, so its cell finishes last and every other
// cell is parked at the frontier until it is in.
TEST(CollectDataset, SlowFirstBsParksTheRestWithoutChangingTheResult) {
  expect_matches_serial(make_network(12, 40.0), make_trace(1, 8));
}

}  // namespace
}  // namespace mtd
