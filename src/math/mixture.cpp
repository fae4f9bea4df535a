#include "math/mixture.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace mtd {

Log10NormalMixture::Log10NormalMixture(std::vector<double> relative_weights,
                                       std::vector<Log10Normal> dists) {
  require(!dists.empty(), "Log10NormalMixture: no components");
  require(relative_weights.size() == dists.size(),
          "Log10NormalMixture: weight/component count mismatch");
  double total = 0.0;
  for (double w : relative_weights) {
    require(w > 0.0, "Log10NormalMixture: weights must be positive");
    total += w;
  }
  components_.reserve(dists.size());
  for (std::size_t i = 0; i < dists.size(); ++i) {
    components_.push_back(Component{relative_weights[i] / total, dists[i]});
  }
  component_alias_ = AliasTable(relative_weights);

  // Flattened scan parameters (see scan_cum): thresholds are the
  // cumulative weights of all but the last component, padded unreachable;
  // locations/scales are padded with the last component so an over-read
  // lane in a vectorized gather still produces a finite value.
  double cum = 0.0;
  for (std::size_t k = 0; k < kScanComponents; ++k) {
    const std::size_t i = std::min(k, components_.size() - 1);
    scan_mu_[k] = components_[i].dist.mu();
    scan_sigma_[k] = components_[i].dist.sigma();
    if (k + 1 < components_.size()) {
      cum += components_[k].weight;
      scan_cum_[k] = cum;
    } else {
      scan_cum_[k] = 2.0;
    }
  }
}

Log10NormalMixture Log10NormalMixture::from_main_and_peaks(
    const Log10Normal& main, std::span<const double> peak_weights,
    std::span<const Log10Normal> peaks) {
  require(peak_weights.size() == peaks.size(),
          "from_main_and_peaks: weight/peak count mismatch");
  std::vector<double> weights{1.0};
  std::vector<Log10Normal> dists{main};
  for (std::size_t i = 0; i < peaks.size(); ++i) {
    weights.push_back(peak_weights[i]);
    dists.push_back(peaks[i]);
  }
  return Log10NormalMixture(std::move(weights), std::move(dists));
}

double Log10NormalMixture::pdf_log10(double u) const noexcept {
  double s = 0.0;
  for (const auto& c : components_) s += c.weight * c.dist.pdf_log10(u);
  return s;
}

double Log10NormalMixture::pdf(double x) const noexcept {
  double s = 0.0;
  for (const auto& c : components_) s += c.weight * c.dist.pdf(x);
  return s;
}

double Log10NormalMixture::cdf(double x) const noexcept {
  double s = 0.0;
  for (const auto& c : components_) s += c.weight * c.dist.cdf(x);
  return s;
}

double Log10NormalMixture::quantile(double p) const {
  require(p > 0.0 && p < 1.0, "Log10NormalMixture::quantile: p outside (0,1)");
  // Bracket in u = log10(x) space using the extreme component quantiles.
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const auto& c : components_) {
    lo = std::min(lo, c.dist.mu() - 10.0 * c.dist.sigma());
    hi = std::max(hi, c.dist.mu() + 10.0 * c.dist.sigma());
  }
  for (int iter = 0; iter < 200 && hi - lo > 1e-12; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (cdf(std::pow(10.0, mid)) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return std::pow(10.0, 0.5 * (lo + hi));
}

double Log10NormalMixture::mean() const noexcept {
  double s = 0.0;
  for (const auto& c : components_) s += c.weight * c.dist.mean();
  return s;
}

}  // namespace mtd
