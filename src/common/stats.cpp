#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace mtd {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  const double n1 = static_cast<double>(n_);
  ++n_;
  const double n = static_cast<double>(n_);
  const double delta = x - mean_;
  const double delta_n = delta / n;
  const double term1 = delta * delta_n * n1;
  mean_ += delta_n;
  m3_ += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * m2_;
  m2_ += term1;
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::skewness() const noexcept {
  if (n_ < 3 || m2_ <= 0.0) return 0.0;
  const double n = static_cast<double>(n_);
  return std::sqrt(n) * m3_ / std::pow(m2_, 1.5);
}

double RunningStats::cv() const noexcept {
  return mean_ != 0.0 ? stddev() / std::abs(mean_) : 0.0;
}

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) noexcept {
  return std::sqrt(variance(xs));
}

double weighted_mean(std::span<const double> xs, std::span<const double> ws) {
  require(xs.size() == ws.size(), "weighted_mean: size mismatch");
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    num += xs[i] * ws[i];
    den += ws[i];
  }
  return den > 0.0 ? num / den : 0.0;
}

double quantile_sorted(std::span<const double> sorted, double q) {
  require(!sorted.empty(), "quantile: empty sample");
  require(q >= 0.0 && q <= 1.0, "quantile: q outside [0,1]");
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= sorted.size()) return sorted.back();
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

namespace {

/// The q-quantile of `xs` exactly as quantile_sorted gives it over a sorted
/// copy, by selection in O(n): xs[lo] is placed by nth_element and
/// sorted[lo + 1] is the minimum of the partition above it. Every element
/// before `first` must be <= every element from `first` on and `first` must
/// not exceed the quantile's lower index; on return `first` is that index,
/// so a larger q continues from it over a narrower range.
double select_quantile(std::span<double> xs, double q, std::size_t& first) {
  require(!xs.empty(), "quantile: empty sample");
  require(q >= 0.0 && q <= 1.0, "quantile: q outside [0,1]");
  if (xs.size() == 1) return xs[0];
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto nth = xs.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(xs.begin() + static_cast<std::ptrdiff_t>(first), nth,
                   xs.end());
  first = lo;
  if (lo + 1 >= xs.size()) return *nth;
  const double frac = pos - static_cast<double>(lo);
  return *nth * (1.0 - frac) + *std::min_element(nth + 1, xs.end()) * frac;
}

}  // namespace

double quantile(std::span<const double> xs, double q) {
  std::vector<double> copy(xs.begin(), xs.end());
  std::size_t first = 0;
  return select_quantile(copy, q, first);
}

BoxplotStats boxplot_stats(std::span<const double> xs) {
  std::vector<double> copy(xs.begin(), xs.end());
  return boxplot_stats_in_place(copy);
}

BoxplotStats boxplot_stats_in_place(std::span<double> xs) {
  // Ascending quantiles, so each selection narrows the next one's range;
  // braced initializers are evaluated in order.
  std::size_t first = 0;
  return BoxplotStats{
      .p5 = select_quantile(xs, 0.05, first),
      .q1 = select_quantile(xs, 0.25, first),
      .median = select_quantile(xs, 0.50, first),
      .q3 = select_quantile(xs, 0.75, first),
      .p95 = select_quantile(xs, 0.95, first),
  };
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  require(xs.size() == ys.size(), "pearson: size mismatch");
  if (xs.size() < 2) return 0.0;
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double r_squared(std::span<const double> obs, std::span<const double> fit) {
  require(obs.size() == fit.size(), "r_squared: size mismatch");
  require(!obs.empty(), "r_squared: empty sample");
  const double m = mean(obs);
  double ss_res = 0.0, ss_tot = 0.0;
  for (std::size_t i = 0; i < obs.size(); ++i) {
    ss_res += (obs[i] - fit[i]) * (obs[i] - fit[i]);
    ss_tot += (obs[i] - m) * (obs[i] - m);
  }
  if (ss_tot <= 0.0) return ss_res <= 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

}  // namespace mtd
