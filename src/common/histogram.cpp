#include "common/histogram.hpp"

#include <algorithm>
#include <cmath>

namespace mtd {

std::size_t Axis::index_clamped(double u) const noexcept {
  // Compare in floating point before casting: NaN fails `pos > 0` and lands
  // in bin 0, +inf and huge finite coordinates fail `pos < bins_` and land
  // in the last bin, so the cast only ever sees a value in [0, bins_).
  const double pos = (u - lo_) / width();
  if (!(pos > 0.0)) return 0;
  if (!(pos < static_cast<double>(bins_))) return bins_ - 1;
  return static_cast<std::size_t>(pos);
}

BinnedPdf BinnedPdf::from_samples(const Axis& axis,
                                  std::span<const double> coords) {
  BinnedPdf pdf(axis);
  for (double u : coords) pdf.add(u);
  pdf.normalize();
  return pdf;
}

double BinnedPdf::integral() const noexcept {
  double s = 0.0;
  for (double d : density_) s += d;
  return s * axis_.width();
}

void BinnedPdf::normalize() noexcept {
  const double total = integral();
  if (total <= 0.0) return;
  for (double& d : density_) d /= total;
}

double BinnedPdf::mean() const noexcept {
  double m = 0.0, w = 0.0;
  for (std::size_t i = 0; i < density_.size(); ++i) {
    m += axis_.center(i) * density_[i];
    w += density_[i];
  }
  return w > 0.0 ? m / w : 0.0;
}

double BinnedPdf::stddev() const noexcept {
  const double mu = mean();
  double s = 0.0, w = 0.0;
  for (std::size_t i = 0; i < density_.size(); ++i) {
    const double d = axis_.center(i) - mu;
    s += d * d * density_[i];
    w += density_[i];
  }
  return w > 0.0 ? std::sqrt(s / w) : 0.0;
}

BinnedPdf BinnedPdf::centered() const {
  const double mu = mean();
  // Shift by an integer number of bins (nearest); sub-bin remainders are
  // negligible at the grid resolutions used by the analyses.
  const auto shift = static_cast<long>(std::lround(mu / axis_.width()));
  BinnedPdf out(axis_);
  const auto n = static_cast<long>(density_.size());
  for (long i = 0; i < n; ++i) {
    long j = i - shift;
    j = std::clamp(j, 0L, n - 1);
    out.density_[static_cast<std::size_t>(j)] +=
        density_[static_cast<std::size_t>(i)];
  }
  return out;
}

std::vector<double> BinnedPdf::cdf() const {
  std::vector<double> out(density_.size(), 0.0);
  double acc = 0.0;
  for (std::size_t i = 0; i < density_.size(); ++i) {
    acc += density_[i] * axis_.width();
    out[i] = acc;
  }
  return out;
}

double BinnedPdf::quantile(double q) const {
  require(q >= 0.0 && q <= 1.0, "BinnedPdf::quantile: q outside [0,1]");
  const double total = integral();
  require(total > 0.0, "BinnedPdf::quantile: empty PDF");
  const double target = q * total;
  double acc = 0.0;
  for (std::size_t i = 0; i < density_.size(); ++i) {
    const double binmass = density_[i] * axis_.width();
    if (acc + binmass >= target) {
      const double frac = binmass > 0.0 ? (target - acc) / binmass : 0.0;
      return axis_.edge(i) + frac * axis_.width();
    }
    acc += binmass;
  }
  return axis_.hi();
}

void BinnedPdf::accumulate(const BinnedPdf& other, double weight) {
  require(axis_ == other.axis_, "BinnedPdf::accumulate: axis mismatch");
  require(weight >= 0.0, "BinnedPdf::accumulate: negative weight");
  for (std::size_t i = 0; i < density_.size(); ++i) {
    density_[i] += weight * other.density_[i];
  }
}

std::size_t BinnedPdf::argmax() const noexcept {
  return static_cast<std::size_t>(
      std::max_element(density_.begin(), density_.end()) - density_.begin());
}

BinnedPdf mixture_average(std::span<const BinnedPdf> pdfs,
                          std::span<const double> weights) {
  require(!pdfs.empty(), "mixture_average: no PDFs");
  require(pdfs.size() == weights.size(), "mixture_average: size mismatch");
  BinnedPdf out(pdfs.front().axis());
  double total = 0.0;
  for (std::size_t i = 0; i < pdfs.size(); ++i) {
    out.accumulate(pdfs[i], weights[i]);
    total += weights[i];
  }
  require(total > 0.0, "mixture_average: zero total weight");
  out.normalize();
  return out;
}

void BinnedMeanCurve::accumulate(const BinnedMeanCurve& other, double weight) {
  require(axis_ == other.axis_, "BinnedMeanCurve::accumulate: axis mismatch");
  require(weight >= 0.0, "BinnedMeanCurve::accumulate: negative weight");
  for (std::size_t i = 0; i < sum_.size(); ++i) {
    sum_[i] += weight * other.sum_[i];
    weight_[i] += weight * other.weight_[i];
  }
}

std::vector<BinnedMeanCurve::Point> BinnedMeanCurve::points() const {
  std::vector<Point> out;
  out.reserve(sum_.size());
  for (std::size_t i = 0; i < sum_.size(); ++i) {
    if (weight_[i] > 0.0) {
      out.push_back(Point{axis_.center(i), value(i), weight_[i]});
    }
  }
  return out;
}

BinnedMeanCurve weighted_average(std::span<const BinnedMeanCurve> curves,
                                 std::span<const double> weights) {
  require(!curves.empty(), "weighted_average: no curves");
  require(curves.size() == weights.size(), "weighted_average: size mismatch");
  BinnedMeanCurve out(curves.front().axis());
  for (std::size_t i = 0; i < curves.size(); ++i) {
    out.accumulate(curves[i], weights[i]);
  }
  return out;
}

}  // namespace mtd
