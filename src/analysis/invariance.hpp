// Invariance study across time, space and technology (Sec. 4.4, Fig. 8).
//
// For each service, compares the traffic-volume PDFs (EMD) and the
// duration-volume pairs (SED) aggregated over different day types, regions,
// cities and RATs; the reference is the inter-service distance ("Apps").
// The paper's takeaway: intra-service distances across all these splits are
// negligible against inter-service heterogeneity.
#pragma once

#include <string>
#include <vector>

#include "common/stats.hpp"
#include "dataset/measurement.hpp"

namespace mtd {

/// One boxplot of Fig. 8: a tagged sample of distances.
struct DistanceSample {
  std::string tag;
  std::vector<double> values;
  [[nodiscard]] BoxplotStats boxplot() const { return boxplot_stats(values); }
  [[nodiscard]] double median() const {
    return boxplot_stats(values).median;
  }
};

struct InvarianceReport {
  /// Traffic-volume PDF distances (EMD): Apps, Days, Regions, Cities, RATs,
  /// Apps(4G), Apps(5G) - in this order.
  std::vector<DistanceSample> pdf_distances;
  /// Duration-volume pair distances (SED), same tags.
  std::vector<DistanceSample> curve_distances;
};

struct InvarianceOptions {
  std::uint64_t min_sessions = 200;
};

[[nodiscard]] InvarianceReport analyze_invariance(
    const MeasurementDataset& dataset, const InvarianceOptions& options = {});

}  // namespace mtd
