// Use case 1: capacity allocation for network slicing (Sec. 6.1).
//
// Each of the catalogue services is a Service Provider that buys a slice
// with a 95% SLA during peak hours (8am-10pm). The operator allocates, per
// antenna and slice, the capacity given by the 95th percentile of the
// per-minute traffic CDF predicted by a traffic model. Three models are
// compared:
//   - ours: the fitted per-service session-level models,
//   - bm a: 3 literature categories with Table-1-aggregated session shares,
//   - bm b: 3 literature categories with literature session shares,
// and evaluated against ground-truth demand (the % of peak minutes in which
// the slice's allocated capacity covers its actual demand -> Table 2; the
// demand-vs-allocation time series of one slice -> Fig. 12).
//
// The Monte-Carlo jobs (one per antenna for the ground truth, one per
// strategy and antenna for the calibration) run concurrently in one fork,
// each on a stream fixed by the seed and its index; the source-backed
// entry point runs its per-BS scans as one job of the same fork. Results
// do not depend on the thread count (DESIGN.md section 17).
#pragma once

#include <string>
#include <vector>

#include "core/service_model.hpp"
#include "events/session_source.hpp"
#include "usecases/baselines.hpp"

namespace mtd {

struct SlicingConfig {
  std::size_t num_antennas = 10;
  /// Evaluation horizon (the paper evaluates one week).
  std::size_t eval_days = 7;
  /// Monte-Carlo days per antenna used to derive each model's demand CDF.
  std::size_t calibration_days = 3;
  /// Load decile of the antennas (cycled over a small neighborhood).
  std::uint8_t antenna_decile = 6;
  double sla_quantile = 0.95;
  std::uint64_t seed = 7;
  /// Service whose slice is exported as the Fig. 12 time series.
  std::string fig12_service = "Facebook";
  std::size_t fig12_antenna = 0;
};

struct SliceStrategyResult {
  std::string name;
  /// Mean over (antenna, service) of the fraction of peak minutes with no
  /// dropped traffic (Table 2, column 1).
  double mean_satisfied = 0.0;
  /// Standard deviation across (antenna, service) (Table 2, column 2).
  double stddev_satisfied = 0.0;
  /// Fraction of slices meeting the 95% SLA.
  double sla_met_fraction = 0.0;
  /// Total capacity allocated across slices and antennas (Mbps), a proxy
  /// for reserved resources.
  double total_allocated_mbps = 0.0;
  /// Fig. 12: allocation for the configured slice at the configured antenna.
  double fig12_allocation_mbps = 0.0;
};

struct SlicingResult {
  std::vector<SliceStrategyResult> strategies;  // ours, bm a, bm b
  /// Fig. 12: per-minute ground-truth demand (Mbps) of the configured slice.
  std::vector<double> fig12_demand_mbps;
};

/// Throws InvalidArgument, prefixed with `where` and naming the field, when
/// num_antennas, eval_days or calibration_days is 0, fig12_antenna is not
/// below num_antennas or sla_quantile is outside [0, 1], and with
/// service_index's error when fig12_service is not a catalogue service.
/// Both entry points and Scenario::from_json run it, so a bad config fails
/// before any job (or any fit) starts.
void validate(const SlicingConfig& config, const std::string& where);

/// Runs the full use case. `registry` provides our fitted models (and the
/// fitted arrival classes used by every strategy so that arrival knowledge
/// is equal across them). Rejects what validate rejects.
[[nodiscard]] SlicingResult run_slicing(const ModelRegistry& registry,
                                        const SlicingConfig& config = {});

/// Same use case with the ground-truth demand streamed from a trace
/// instead of Monte-Carlo: antenna a evaluates the recorded sessions of
/// BS a over days [0, eval_days) — one per-BS push-down scan per antenna —
/// with sub-minute placement derived from the event key. The strategy
/// allocations are the same calibration Monte-Carlo as run_slicing, so the
/// result depends on the source only through the delivered event stream:
/// two sources with the same events yield bit-identical tables. The scans
/// run on one thread of the calibration fork, not always the caller's, and
/// never concurrently; an exception from the source is rethrown once the
/// fork has joined. Sessions of a service outside the catalogue are
/// skipped. Rejects what run_slicing rejects, and eval_days above 65536
/// (days are 16-bit).
[[nodiscard]] SlicingResult run_slicing_from_source(
    SessionSource& source, const ModelRegistry& registry,
    const SlicingConfig& config = {});

}  // namespace mtd
