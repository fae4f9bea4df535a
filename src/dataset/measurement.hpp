// Aggregation of raw sessions into the paper's measurement statistics.
//
// Mirrors Sec. 3.2: for each (service s, BS c, day t) the operator keeps
//   - w_s^{c,m}: per-minute session arrival counts (and the daily w_s^{c,t}),
//   - F_s^{c,t}(x): a PDF of per-session traffic volume,
//   - v_s^{c,t}(d): mean volume per discretized session duration,
// and Sec. 3.3: weighted averaging of these statistics over sets of BSs
// and days (Eqs. 1-2).
//
// Only what the analyses read is kept, accumulated streaming: per service
// the 13 slices (total, workday / weekend, region, city, RAT), whose PDF and
// curve are the Eq. 1-2 averages over their cells, plus the per-decile
// arrival statistics and the share moments. A one-cell dataset
// (run_bs_day + finalize()) holds one cell's statistics; mixture_average
// and BinnedMeanCurve::accumulate average such cells over any other set.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/histogram.hpp"
#include "common/stats.hpp"
#include "dataset/generator.hpp"
#include "dataset/network.hpp"

namespace mtd {

/// Binning of volume PDFs: u = log10(volume MB) on [-4, 4), 0.05 wide bins.
[[nodiscard]] Axis volume_axis();
/// Binning of duration curves: log10(duration s) on [0, 4.2), 0.05 bins.
[[nodiscard]] Axis duration_axis();

/// Aggregation slices kept per service.
enum class Slice : std::uint8_t {
  kTotal = 0,
  kWorkday,
  kWeekend,
  kUrban,
  kSemiUrban,
  kRural,
  kCity0,
  kCity1,
  kCity2,
  kCity3,
  kCity4,
  k4G,
  k5G,
};
inline constexpr std::size_t kNumSlices = 13;

[[nodiscard]] const char* to_string(Slice s) noexcept;

/// Volume PDF + duration-volume curve + totals for one (service, slice).
struct ServiceSliceStats {
  ServiceSliceStats()
      : volume_pdf(volume_axis()), dv_curve(duration_axis()) {}

  BinnedPdf volume_pdf;       // unnormalized; weights are session counts
  BinnedMeanCurve dv_curve;   // mean volume per log10-duration bin
  std::uint64_t sessions = 0;
  double volume_mb = 0.0;

  /// The normalized F_s(x) of this slice.
  [[nodiscard]] BinnedPdf normalized_pdf() const {
    BinnedPdf pdf = volume_pdf;
    pdf.normalize();
    return pdf;
  }
};

/// Per-decile arrival statistics backing Fig. 3 and the arrival model fits.
struct DecileArrivalStats {
  explicit DecileArrivalStats(const Axis& axis)
      : count_pdf(axis), day_pdf(axis) {}

  BinnedPdf count_pdf;    // pooled per-minute counts, all BSs of the decile
  BinnedPdf day_pdf;      // daytime phase only
  RunningStats day_stats;   // moments of daytime counts
  RunningStats night_stats; // moments of overnight counts
};

/// The dataset built from a trace: the slice, decile and share statistics.
/// Normally built by collect_dataset, which generates and aggregates every
/// (BS, day) cell on its own parallel job and folds the finished cells in
/// (BS, day) order. Streaming front-ends fill it through the TraceSink
/// interface, whole cells in ascending (BS, day) order, and call
/// finalize(); each cell is folded through the same routine once an
/// event's key moves past it, bit-identically to collect_dataset.
class MeasurementDataset final : public TraceSink {
 public:
  MeasurementDataset(const Network& network, std::size_t num_days);

  // TraceSink interface.
  void on_minute(const BaseStation& bs, std::size_t day,
                 std::size_t minute_of_day, std::uint32_t count) override;
  void on_session(const Session& session) override;

  /// Folds the last cell fed through on_minute/on_session; call once after
  /// the final trace event. Cells must arrive whole and in ascending
  /// (BS, day) order (a SessionSource scan, TraceStore::replay,
  /// replay_csv_trace, TraceGenerator::run); a key that goes backwards, or
  /// a day not below num_days(), raises InvalidArgument.
  void finalize();

  // -- accessors ------------------------------------------------------------

  [[nodiscard]] const Network& network() const noexcept { return *network_; }
  [[nodiscard]] std::size_t num_days() const noexcept { return num_days_; }
  [[nodiscard]] std::size_t num_services() const noexcept {
    return services_.size();
  }

  [[nodiscard]] const ServiceSliceStats& slice(std::size_t service,
                                               Slice s) const;
  [[nodiscard]] const DecileArrivalStats& decile_arrivals(
      std::uint8_t decile) const;

  /// Per-service share of all sessions / of all traffic (fractions).
  [[nodiscard]] std::vector<double> session_shares() const;
  [[nodiscard]] std::vector<double> traffic_shares() const;
  /// Coefficient of variation of the per-(BS, day) session / traffic share.
  [[nodiscard]] std::vector<double> session_share_cv() const;
  [[nodiscard]] std::vector<double> traffic_share_cv() const;

  [[nodiscard]] std::uint64_t total_sessions() const noexcept {
    return total_sessions_;
  }
  [[nodiscard]] double total_volume_mb() const noexcept {
    return total_volume_;
  }

 private:
  friend MeasurementDataset collect_dataset(const Network&,
                                            const TraceConfig&);

  /// What one (BS, day) cell adds to the dataset, fed the cell's own events
  /// in order and applied by fold(). Integer tallies (session counts, PDF
  /// bins, per-minute arrival counts) are exact under any addition order;
  /// the floating-point ones (volume sums, duration-volume curves) depend
  /// only on the cell's own sequence.
  struct CellPartial final : TraceSink {
    CellPartial(std::uint32_t bs, std::uint16_t day, std::size_t num_services)
        : bs(bs), day(day), services(num_services) {}

    void on_minute(const BaseStation& /*bs*/, std::size_t /*day*/,
                   std::size_t minute_of_day, std::uint32_t count) override;
    void on_session(const Session& session) override;

    struct Service {
      std::uint64_t sessions = 0;
      double volume_mb = 0.0;
      // Volume-PDF bins, sized at the first session.
      std::vector<std::uint32_t> bins;
      std::optional<BinnedMeanCurve> dv_curve;
    };

    std::uint32_t bs;
    std::uint16_t day;
    // Per-minute arrival counts split by phase, in minute order; replayed
    // into the decile RunningStats so the Welford updates run in minute
    // order, as in serial generation.
    std::vector<std::uint32_t> day_counts;
    std::vector<std::uint32_t> night_counts;
    std::vector<Service> services;  // per catalogue service
  };

  /// Applies one finished cell. Every floating-point accumulation here
  /// depends on the order of folds, so cells must be folded in ascending
  /// (BS, day) order — the order of serial generation.
  void fold(const CellPartial& cell);
  /// The partial of cell (bs, day), the one being fed: folds the previous
  /// cell when the key moves past it.
  [[nodiscard]] CellPartial& cell(std::uint32_t bs, std::size_t day);

  const Network* network_;
  std::size_t num_days_;
  std::vector<const ServiceProfile*> services_;

  // service x slice accumulators.
  std::vector<std::array<ServiceSliceStats, kNumSlices>> slice_stats_;

  // decile arrival statistics.
  std::vector<DecileArrivalStats> decile_stats_;

  // The cell being fed through on_minute/on_session, not yet folded.
  std::optional<CellPartial> current_;
  std::vector<RunningStats> session_share_stats_;
  std::vector<RunningStats> traffic_share_stats_;

  std::uint64_t total_sessions_ = 0;
  double total_volume_ = 0.0;
};

/// Generates a full trace and aggregates it: one parallel_for job per
/// (BS, day) runs the cell through the scalar kernel into a cell partial,
/// and finished cells are folded in (BS, day) order as soon as every lower
/// cell is in, so only the cells in flight or waiting on a lower one are
/// held. Bit-identical to TraceGenerator::run into a fresh dataset plus
/// finalize(), at any thread count.
[[nodiscard]] MeasurementDataset collect_dataset(
    const Network& network, const TraceConfig& trace_config);

}  // namespace mtd
