// Binned probability density functions and binned mean curves.
//
// The measurement pipeline of the paper represents, per (service, BS, day):
//   - F_s^{c,t}(x): a PDF of per-session traffic volume, which we bin
//     uniformly in u = log10(volume) coordinates, and
//   - v_s^{c,t}(d): pairs of discretized session duration and the mean volume
//     of sessions with that duration, which we bin in log10(duration).
//
// Both containers support the weighted averaging of Eqs. (1) and (2).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace mtd {

/// A uniform axis over [lo, hi) in coordinate space with `bins` equal bins.
///
/// The axis is agnostic of the coordinate transform: volume PDFs use
/// u = log10(MB), duration curves use log10(seconds), arrival-rate PDFs use
/// plain sessions/minute. Callers apply the transform before indexing.
class Axis {
 public:
  Axis(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi), bins_(bins) {
    require(bins > 0, "Axis: need at least one bin");
    require(hi > lo, "Axis: hi must exceed lo");
  }

  [[nodiscard]] double lo() const noexcept { return lo_; }
  [[nodiscard]] double hi() const noexcept { return hi_; }
  [[nodiscard]] std::size_t bins() const noexcept { return bins_; }
  [[nodiscard]] double width() const noexcept {
    return (hi_ - lo_) / static_cast<double>(bins_);
  }
  [[nodiscard]] double center(std::size_t i) const noexcept {
    return lo_ + (static_cast<double>(i) + 0.5) * width();
  }
  [[nodiscard]] double edge(std::size_t i) const noexcept {
    return lo_ + static_cast<double>(i) * width();
  }
  /// Bin index of `u`, clamped to [0, bins-1] so out-of-range samples
  /// accumulate in the boundary bins instead of being dropped. Total: NaN
  /// and -inf go to bin 0, +inf to the last bin.
  [[nodiscard]] std::size_t index_clamped(double u) const noexcept;
  /// True when `u` falls inside [lo, hi).
  [[nodiscard]] bool contains(double u) const noexcept {
    return u >= lo_ && u < hi_;
  }

  friend bool operator==(const Axis& a, const Axis& b) noexcept {
    return a.lo_ == b.lo_ && a.hi_ == b.hi_ && a.bins_ == b.bins_;
  }

 private:
  double lo_;
  double hi_;
  std::size_t bins_;
};

/// A probability density function over a uniform Axis.
///
/// Density values are per unit of axis coordinate, so
/// sum(density) * axis.width() == 1 after normalize().
class BinnedPdf {
 public:
  explicit BinnedPdf(Axis axis)
      : axis_(axis), density_(axis.bins(), 0.0) {}

  /// Builds a normalized PDF from raw coordinate samples (already
  /// transformed; e.g. log10 of the volume in MB).
  static BinnedPdf from_samples(const Axis& axis,
                                std::span<const double> coords);

  [[nodiscard]] const Axis& axis() const noexcept { return axis_; }
  [[nodiscard]] std::span<const double> density() const noexcept {
    return density_;
  }
  [[nodiscard]] double& operator[](std::size_t i) { return density_[i]; }
  [[nodiscard]] double operator[](std::size_t i) const { return density_[i]; }
  [[nodiscard]] std::size_t size() const noexcept { return density_.size(); }

  /// Adds one sample with the given weight (density normalization deferred).
  void add(double coord, double weight = 1.0) noexcept {
    density_[axis_.index_clamped(coord)] += weight;
  }

  /// Total integral of the density over the axis.
  [[nodiscard]] double integral() const noexcept;

  /// Scales the density so that it integrates to one. No-op on an all-zero
  /// PDF.
  void normalize() noexcept;

  /// Mean of the coordinate under this density.
  [[nodiscard]] double mean() const noexcept;
  /// Standard deviation of the coordinate under this density.
  [[nodiscard]] double stddev() const noexcept;

  /// Returns a copy whose coordinate mean is zero (grid extended as needed is
  /// avoided by shifting density across the same grid; mass shifted past an
  /// edge accumulates at the edge). Used by the clustering analysis, which
  /// compares PDF *shapes* irrespective of absolute traffic volume.
  [[nodiscard]] BinnedPdf centered() const;

  /// Cumulative distribution at each bin's right edge.
  [[nodiscard]] std::vector<double> cdf() const;

  /// Coordinate below which a fraction `q` of the mass lies (linear
  /// interpolation inside the bin). Requires a normalized, non-empty PDF.
  [[nodiscard]] double quantile(double q) const;

  /// Weighted accumulation: this += weight * other (same axis required).
  /// Together with normalize(), implements the mixture averaging of Eq. (2).
  void accumulate(const BinnedPdf& other, double weight);

  /// Index of the highest-density bin.
  [[nodiscard]] std::size_t argmax() const noexcept;

 private:
  Axis axis_;
  std::vector<double> density_;
};

/// Weighted mixture average of PDFs per Eq. (2): sum(w_i F_i) / sum(w_i).
/// All PDFs must share the same axis; weights must be non-negative with a
/// positive sum.
[[nodiscard]] BinnedPdf mixture_average(std::span<const BinnedPdf> pdfs,
                                        std::span<const double> weights);

/// A curve of per-bin weighted mean values: v(d) as in the paper, where d is
/// the binned coordinate (log10 duration) and the value is the mean session
/// volume observed in that bin.
class BinnedMeanCurve {
 public:
  explicit BinnedMeanCurve(Axis axis)
      : axis_(axis), sum_(axis.bins(), 0.0), weight_(axis.bins(), 0.0) {}

  [[nodiscard]] const Axis& axis() const noexcept { return axis_; }

  /// Adds one (coordinate, value) observation with the given weight.
  void add(double coord, double value, double weight = 1.0) noexcept {
    const std::size_t i = axis_.index_clamped(coord);
    sum_[i] += value * weight;
    weight_[i] += weight;
  }

  /// Weighted mean value of bin i; 0 for empty bins.
  [[nodiscard]] double value(std::size_t i) const noexcept {
    return weight_[i] > 0.0 ? sum_[i] / weight_[i] : 0.0;
  }
  [[nodiscard]] double weight(std::size_t i) const noexcept {
    return weight_[i];
  }
  [[nodiscard]] std::size_t size() const noexcept { return sum_.size(); }

  /// Weighted accumulation per Eq. (1): merges another curve with an overall
  /// weight factor. Same axis required.
  void accumulate(const BinnedMeanCurve& other, double weight);

  /// Extracts the non-empty (coordinate, value, weight) triples.
  struct Point {
    double coord;
    double value;
    double weight;
  };
  [[nodiscard]] std::vector<Point> points() const;

 private:
  Axis axis_;
  std::vector<double> sum_;
  std::vector<double> weight_;
};

/// Weighted average of mean curves per Eq. (1).
[[nodiscard]] BinnedMeanCurve weighted_average(
    std::span<const BinnedMeanCurve> curves, std::span<const double> weights);

}  // namespace mtd
