// Use case 2: energy consumption in a virtualized RAN (Sec. 6.2).
//
// A Telco Cloud Site hosts Centralized Units on identical physical servers
// (PS): 100 Mbps of traffic capacity each, 60 W idle, 200 W at full load,
// linear in between. Sessions arrive at 20 x 20 = 400 Radio Units; every
// 1-second time slot a bin-packing heuristic (first-fit decreasing over
// per-RU loads) consolidates the load onto the minimum number of PSs.
//
// The same realization of session arrivals (times, RUs, service classes) is
// replayed under different session-characteristic models - ground truth
// ("measurement"), our fitted models, and the literature category
// benchmarks bm a / bm b / bm c - and the per-slot number of active PSs and
// power consumption are compared via the absolute percentage error (APE)
// against ground truth (Fig. 13b); a time-series window is exported for
// Fig. 13c.
//
// The five strategy simulations run concurrently, each on a stream fixed
// by the seed and its index; results do not depend on the thread count
// (DESIGN.md section 17).
#pragma once

#include <string>
#include <vector>

#include "common/stats.hpp"
#include "core/service_model.hpp"
#include "events/session_source.hpp"
#include "usecases/baselines.hpp"

namespace mtd {

/// The physical-server energy model ([36] in the paper).
struct PsPowerModel {
  double capacity_mbps = 100.0;
  double idle_w = 60.0;
  double max_w = 200.0;

  [[nodiscard]] double power(double utilization) const noexcept {
    return idle_w + (max_w - idle_w) * utilization;
  }
};

/// Consolidation policy of the per-slot orchestrator.
enum class PackingPolicy : std::uint8_t {
  kFirstFitDecreasing,  // the paper's heuristic [18]
  kBestFitDecreasing,   // tightest-fitting bin
  kWorstFitDecreasing,  // emptiest bin (load balancing, anti-consolidation)
  kNoConsolidation,     // one PS per RU (the naive baseline)
};

[[nodiscard]] const char* to_string(PackingPolicy p) noexcept;

/// Bin packing of `loads` into bins of `capacity` under a policy. Items
/// larger than the capacity are split across bins (a DU's load can be
/// served by multiple CUs). Returns the number of bins and the vector of
/// bin loads. Throws InvalidArgument when capacity is not positive, a load
/// is not finite, or the loads need more than 65535 bins (active PSs are
/// counted in 16 bits). Exposed for unit testing and the packing ablation.
struct PackingResult {
  std::size_t bins = 0;
  std::vector<double> bin_loads;
};
[[nodiscard]] PackingResult pack_loads(
    std::vector<double> loads, double capacity,
    PackingPolicy policy = PackingPolicy::kFirstFitDecreasing);

struct VranConfig {
  std::size_t num_edge_sites = 20;
  std::size_t rus_per_site = 20;
  /// Simulated horizon in days (the paper runs several emulated days).
  std::size_t num_days = 1;
  /// Load decile of the RUs.
  std::uint8_t ru_decile = 4;
  std::uint64_t seed = 11;
  PsPowerModel ps;
  PackingPolicy packing = PackingPolicy::kFirstFitDecreasing;
  /// Fig. 13c window: start minute and length in seconds.
  std::size_t series_start_minute = 9 * 60;
  std::size_t series_seconds = 600;
};

/// Per-slot outcome of one strategy.
struct VranTimeline {
  std::string name;
  std::vector<std::uint16_t> active_ps;  // per time slot
  std::vector<float> power_w;            // per time slot
};

struct VranStrategyResult {
  std::string name;
  /// APE distributions against ground truth (per-slot values).
  BoxplotStats ape_active_ps;
  BoxplotStats ape_power;
  double median_ape_active_ps = 0.0;
  double median_ape_power = 0.0;
  double mean_power_w = 0.0;
  /// Fig. 13c excerpt.
  std::vector<float> power_series_w;
};

struct VranResult {
  /// Ground truth first, then our model, bm a, bm b, bm c.
  std::vector<VranStrategyResult> strategies;
};

/// Throws InvalidArgument, prefixed with `where` and naming the field, when
/// num_edge_sites, rus_per_site or num_days is 0, when there are more than
/// 65536 RUs (RU ids are 16-bit), when the horizon's seconds overflow
/// 32 bits (num_days > 49710), or when ps.capacity_mbps is not positive
/// (nothing could be packed). Both entry points and Scenario::from_json
/// run it, so a bad config fails before any job (or any fit) starts.
void validate(const VranConfig& config, const std::string& where);

/// Runs the full use case with the fitted `registry` (our model and the
/// arrival classes shared by all strategies). Rejects what validate
/// rejects.
[[nodiscard]] VranResult run_vran(const ModelRegistry& registry,
                                  const VranConfig& config = {});

/// Same use case with the shared arrival realization streamed from a trace
/// instead of Monte-Carlo: RU r replays the recorded sessions of BS r over
/// days [0, num_days) (one per-BS push-down scan each); the "measurement"
/// strategy replays each session's own recorded rate and duration while
/// the model strategies attach their draws to the same arrivals. Depends
/// on the source only through the delivered event stream, so two sources
/// holding the same events yield bit-identical energy figures. Sessions
/// of a service outside the catalogue (a foreign or corrupt store) are
/// skipped, as run_slicing_from_source skips them. Rejects what run_vran
/// rejects.
[[nodiscard]] VranResult run_vran_from_source(SessionSource& source,
                                              const ModelRegistry& registry,
                                              const VranConfig& config = {});

}  // namespace mtd
