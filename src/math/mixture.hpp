// Finite mixtures of log10-normal components.
//
// The paper's traffic-volume model (Eq. 5) is
//   F~_s(x) = ( f_s(x) + sum_n k_{s,n} f_{s,n}(x) ) / ( 1 + sum_n k_{s,n} )
// i.e. a main log-normal plus up to three residual-peak log-normals with
// relative weights k_{s,n}. This class stores the normalized mixture and
// provides density, CDF, quantile and sampling.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "common/alias_table.hpp"
#include "common/rng.hpp"
#include "math/distributions.hpp"

namespace mtd {

class Log10NormalMixture {
 public:
  struct Component {
    double weight;  // normalized; sums to 1 over the mixture
    Log10Normal dist;
  };

  /// Builds a mixture from relative weights (they are normalized internally;
  /// all must be positive).
  Log10NormalMixture(std::vector<double> relative_weights,
                     std::vector<Log10Normal> dists);

  /// Paper Eq. (5): main component (implicit relative weight 1) plus peaks
  /// with relative weights k_n.
  static Log10NormalMixture from_main_and_peaks(
      const Log10Normal& main, std::span<const double> peak_weights,
      std::span<const Log10Normal> peaks);

  [[nodiscard]] std::span<const Component> components() const noexcept {
    return components_;
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return components_.size();
  }

  /// Density over u = log10(x).
  [[nodiscard]] double pdf_log10(double u) const noexcept;
  /// Density over x.
  [[nodiscard]] double pdf(double x) const noexcept;
  [[nodiscard]] double cdf(double x) const noexcept;
  /// Numeric inverse CDF (bisection over log10 x); p in (0, 1).
  [[nodiscard]] double quantile(double p) const;
  /// Draws from the mixture: one uniform picks the component via the
  /// precomputed alias table (O(1)), one normal deviate samples it.
  /// Defined inline — this sits on the per-session hot path.
  [[nodiscard]] double sample(Rng& rng) const noexcept {
    return components_[component_alias_.sample(rng)].dist.sample(rng);
  }

  /// The alias table over component weights (test introspection).
  [[nodiscard]] const AliasTable& component_alias() const noexcept {
    return component_alias_;
  }

  /// Mixtures at or below this size select components by a branch-free
  /// in-register cumulative scan instead of the alias table in the batch
  /// kernels: with 2-4 components the scan's compares stay in registers
  /// while the alias pick costs an indexed table load, and PR 5 measured
  /// the alias pick at 0.6x the scan for exactly this case (see the
  /// mixture_scan_small crossover rows in bench_hot_paths). Every paper
  /// mixture (main lobe + <= 3 residual peaks, Eq. 5) fits.
  static constexpr std::size_t kScanComponents = 4;

  /// Flattened scan parameters (cumulative thresholds / locations /
  /// scales) for kernels that gather them per session across services
  /// (dataset/generator SessionBlockKernel). The scan is a CDF-inversion
  /// component pick: k = (u >= cum[0]) + (u >= cum[1]) + (u >= cum[2]),
  /// the component whose cumulative weight interval contains u. It
  /// deliberately differs from component_alias().pick — the scalar path
  /// keeps the alias mapping for stream compatibility with the pre-batch
  /// releases.
  [[nodiscard]] const std::array<double, kScanComponents>& scan_cum()
      const noexcept {
    return scan_cum_;
  }
  [[nodiscard]] const std::array<double, kScanComponents>& scan_mu()
      const noexcept {
    return scan_mu_;
  }
  [[nodiscard]] const std::array<double, kScanComponents>& scan_sigma()
      const noexcept {
    return scan_sigma_;
  }

  /// Mixture mean of x.
  [[nodiscard]] double mean() const noexcept;

 private:
  std::vector<Component> components_;
  AliasTable component_alias_;
  /// Flattened small-mixture parameters for the in-register scan:
  /// scan_cum_[k] is the cumulative weight through component k, padded
  /// with an unreachable 2.0 so the scan never over-counts; mu and
  /// sigma are padded with the last component's values. Only meaningful
  /// for mixtures up to kScanComponents.
  std::array<double, kScanComponents> scan_cum_{2.0, 2.0, 2.0, 2.0};
  std::array<double, kScanComponents> scan_mu_{};
  std::array<double, kScanComponents> scan_sigma_{};
};

}  // namespace mtd
