// Descriptive statistics over plain samples and weighted samples.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace mtd {

/// Streaming accumulator for mean/variance/skewness (Welford / Terriberry).
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  /// Fisher-Pearson skewness estimate; 0 for fewer than three samples.
  [[nodiscard]] double skewness() const noexcept;
  /// Coefficient of variation (stddev / mean); 0 when the mean is 0.
  [[nodiscard]] double cv() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double m3_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

[[nodiscard]] double mean(std::span<const double> xs) noexcept;
[[nodiscard]] double variance(std::span<const double> xs) noexcept;
[[nodiscard]] double stddev(std::span<const double> xs) noexcept;

/// Weighted mean; weights need not be normalized. Returns 0 on empty input or
/// zero total weight.
[[nodiscard]] double weighted_mean(std::span<const double> xs,
                                   std::span<const double> ws);

/// Linear-interpolation quantile over a copy of the samples; q in [0, 1].
/// Found by selection in O(n), with the same value as quantile_sorted over
/// a sorted copy. Selection and a sort may order +0.0 and -0.0 (which
/// compare equal) differently, so a sample holding both may yield either
/// zero; the use cases' samples hold no -0.0 (APEs are std::abs values,
/// demand series are sums from +0.0).
[[nodiscard]] double quantile(std::span<const double> xs, double q);

/// Quantile over samples already sorted ascending (no copy).
[[nodiscard]] double quantile_sorted(std::span<const double> sorted, double q);

/// Five-number summary used by the boxplot figures (Fig. 8 of the paper):
/// whiskers at the 5th/95th percentiles, box at the quartiles.
struct BoxplotStats {
  double p5 = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double p95 = 0.0;
};

/// By selection over a copy, with quantile's values and caveat.
[[nodiscard]] BoxplotStats boxplot_stats(std::span<const double> xs);

/// boxplot_stats without the copy: reorders `xs`.
[[nodiscard]] BoxplotStats boxplot_stats_in_place(std::span<double> xs);

/// Pearson correlation coefficient; 0 when either side is constant.
[[nodiscard]] double pearson(std::span<const double> xs,
                             std::span<const double> ys);

/// Coefficient of determination of predictions `fit` against observations
/// `obs`: 1 - SS_res / SS_tot. Returns 1 for a perfect fit of constant data.
[[nodiscard]] double r_squared(std::span<const double> obs,
                               std::span<const double> fit);

}  // namespace mtd
