// Use-case goldens: every number the two Sec. 6 use cases report, pinned
// by digest for each public entry point at one small fixed config. The
// Monte-Carlo jobs inside them may be scheduled in any way (DESIGN.md
// section 17); these digests hold whatever the schedule.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/fmt.hpp"
#include "common/fnv.hpp"
#include "engine/engine.hpp"
#include "events/session_source.hpp"
#include "test_helpers.hpp"
#include "usecases/slicing.hpp"
#include "usecases/vran.hpp"

namespace mtd {
namespace {

/// FNV-1a over the bit patterns of the values added, lengths included.
class Fnv1a {
 public:
  void add(double v) {
    h_ = fnv1a64_word(h_, std::bit_cast<std::uint64_t>(v));
  }
  void add(float v) {
    char bytes[4];
    (void)store_le(bytes, std::bit_cast<std::uint32_t>(v));
    h_ = fnv1a64(std::string_view(bytes, sizeof bytes), h_);
  }
  void add(std::size_t v) { h_ = fnv1a64_word(h_, v); }
  void add(const BoxplotStats& b) {
    for (const double v : {b.p5, b.q1, b.median, b.q3, b.p95}) add(v);
  }
  template <typename T>
  void add(const std::vector<T>& xs) {
    add(xs.size());
    for (const T& x : xs) add(x);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = kFnvOffsetBasis;
};

std::uint64_t digest(const SlicingResult& result) {
  Fnv1a h;
  h.add(result.strategies.size());
  for (const SliceStrategyResult& s : result.strategies) {
    h.add(s.mean_satisfied);
    h.add(s.stddev_satisfied);
    h.add(s.sla_met_fraction);
    h.add(s.total_allocated_mbps);
    h.add(s.fig12_allocation_mbps);
  }
  h.add(result.fig12_demand_mbps);
  return h.value();
}

std::uint64_t digest(const VranResult& result) {
  Fnv1a h;
  h.add(result.strategies.size());
  for (const VranStrategyResult& s : result.strategies) {
    h.add(s.ape_active_ps);
    h.add(s.ape_power);
    h.add(s.median_ape_active_ps);
    h.add(s.median_ape_power);
    h.add(s.mean_power_w);
    h.add(s.power_series_w);
  }
  return h.value();
}

const ModelRegistry& registry() {
  static const ModelRegistry r = ModelRegistry::fit(test::small_dataset());
  return r;
}

/// One day of a 12-BS network, recorded by a single-worker engine run.
MemorySessionSource& recorded_source() {
  static MemorySessionSource source = [] {
    NetworkConfig net_config;
    net_config.num_bs = 12;
    net_config.last_decile_rate = 40.0;
    Rng rng(41);
    static const Network network = Network::build(net_config, rng);
    TraceConfig trace;
    trace.num_days = 1;
    trace.seed = 43;
    EngineConfig config;
    config.num_workers = 1;
    StreamEngine engine(network, trace, config);
    MemorySessionSource::Collector tap;
    const EngineResult result = engine.run(tap);
    EXPECT_TRUE(result.checkpoint.complete());
    return MemorySessionSource(std::move(tap).take());
  }();
  return source;
}

SlicingConfig slicing_config() {
  SlicingConfig config;
  config.num_antennas = 3;
  config.eval_days = 1;
  config.calibration_days = 1;
  config.seed = 29;
  config.fig12_antenna = 2;
  return config;
}

VranConfig vran_config() {
  VranConfig config;
  config.num_edge_sites = 2;
  config.rus_per_site = 3;
  config.num_days = 1;
  config.seed = 31;
  config.series_seconds = 90;
  return config;
}

TEST(UseCaseGolden, RunSlicing) {
  const std::uint64_t d = digest(run_slicing(registry(), slicing_config()));
  EXPECT_EQ(d, 0x4469f24c546d89d7ULL) << std::hex << d;
}

TEST(UseCaseGolden, RunSlicingFromSource) {
  const std::uint64_t d = digest(
      run_slicing_from_source(recorded_source(), registry(), slicing_config()));
  EXPECT_EQ(d, 0x19456e4301d56db3ULL) << std::hex << d;
}

TEST(UseCaseGolden, RunVran) {
  const std::uint64_t d = digest(run_vran(registry(), vran_config()));
  EXPECT_EQ(d, 0xc50e136c6882e6e4ULL) << std::hex << d;
}

TEST(UseCaseGolden, RunVranFromSource) {
  const std::uint64_t d = digest(
      run_vran_from_source(recorded_source(), registry(), vran_config()));
  EXPECT_EQ(d, 0xc53bcd1594494185ULL) << std::hex << d;
}

}  // namespace
}  // namespace mtd
