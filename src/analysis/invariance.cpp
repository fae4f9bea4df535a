#include "analysis/invariance.hpp"

#include <array>

#include "common/error.hpp"
#include "math/clustering.hpp"
#include "math/metrics.hpp"

namespace mtd {

namespace {

/// Services with enough sessions in every listed slice.
std::vector<std::size_t> eligible_services(
    const MeasurementDataset& dataset, std::span<const Slice> slices,
    std::uint64_t min_sessions) {
  std::vector<std::size_t> out;
  for (std::size_t s = 0; s < dataset.num_services(); ++s) {
    bool ok = true;
    for (Slice slice : slices) {
      if (dataset.slice(s, slice).sessions < min_sessions) {
        ok = false;
        break;
      }
    }
    if (ok) out.push_back(s);
  }
  return out;
}

/// Pairwise inter-service distances over one slice (centered PDFs, matching
/// the Fig. 6 matrix) and raw SED between curves.
void inter_service_distances(const MeasurementDataset& dataset, Slice slice,
                             std::uint64_t min_sessions,
                             std::vector<double>& pdf_out,
                             std::vector<double>& curve_out) {
  const std::array<Slice, 1> slices{slice};
  const std::vector<std::size_t> services =
      eligible_services(dataset, slices, min_sessions);
  std::vector<BinnedPdf> pdfs;
  std::vector<const BinnedMeanCurve*> curves;
  for (std::size_t s : services) {
    pdfs.push_back(dataset.slice(s, slice).normalized_pdf().centered());
    curves.push_back(&dataset.slice(s, slice).dv_curve);
  }
  for (std::size_t i = 0; i < pdfs.size(); ++i) {
    for (std::size_t j = i + 1; j < pdfs.size(); ++j) {
      pdf_out.push_back(emd(pdfs[i], pdfs[j]));
      curve_out.push_back(squared_euclidean(*curves[i], *curves[j]));
    }
  }
}

/// Intra-service distances between pairs of the given slices. Pairs where
/// either side lacks data (e.g. a city with no BS of the synthetic network)
/// are skipped per service, so sparse slices degrade gracefully.
void intra_service_distances(const MeasurementDataset& dataset,
                             std::span<const Slice> slices,
                             std::uint64_t min_sessions,
                             std::vector<double>& pdf_out,
                             std::vector<double>& curve_out) {
  for (std::size_t s = 0; s < dataset.num_services(); ++s) {
    for (std::size_t a = 0; a < slices.size(); ++a) {
      const ServiceSliceStats& sa = dataset.slice(s, slices[a]);
      if (sa.sessions < min_sessions) continue;
      for (std::size_t b = a + 1; b < slices.size(); ++b) {
        const ServiceSliceStats& sb = dataset.slice(s, slices[b]);
        if (sb.sessions < min_sessions) continue;
        pdf_out.push_back(emd(sa.normalized_pdf(), sb.normalized_pdf()));
        curve_out.push_back(squared_euclidean(sa.dv_curve, sb.dv_curve));
      }
    }
  }
}

}  // namespace

InvarianceReport analyze_invariance(const MeasurementDataset& dataset,
                                    const InvarianceOptions& options) {
  InvarianceReport report;

  const auto add = [&report](const std::string& tag,
                             std::vector<double> pdf_values,
                             std::vector<double> curve_values) {
    require(!pdf_values.empty(),
            "analyze_invariance: no distances for tag " + tag +
                " (dataset too small?)");
    report.pdf_distances.push_back(DistanceSample{tag, std::move(pdf_values)});
    report.curve_distances.push_back(
        DistanceSample{tag, std::move(curve_values)});
  };

  std::vector<double> pdf_values, curve_values;

  // Apps: inter-service heterogeneity on the total slice (Fig. 6 values).
  inter_service_distances(dataset, Slice::kTotal, options.min_sessions,
                          pdf_values, curve_values);
  add("Apps", std::move(pdf_values), std::move(curve_values));
  pdf_values.clear();
  curve_values.clear();

  // Days: workdays vs weekends, per service.
  const std::array<Slice, 2> days{Slice::kWorkday, Slice::kWeekend};
  intra_service_distances(dataset, days, options.min_sessions, pdf_values,
                          curve_values);
  add("Days", std::move(pdf_values), std::move(curve_values));
  pdf_values.clear();
  curve_values.clear();

  // Regions: urban / semi-urban / rural, per service.
  const std::array<Slice, 3> regions{Slice::kUrban, Slice::kSemiUrban,
                                     Slice::kRural};
  intra_service_distances(dataset, regions, options.min_sessions, pdf_values,
                          curve_values);
  add("Regions", std::move(pdf_values), std::move(curve_values));
  pdf_values.clear();
  curve_values.clear();

  // Cities: the 5 largest metropolitan areas, per service.
  const std::array<Slice, 5> cities{Slice::kCity0, Slice::kCity1,
                                    Slice::kCity2, Slice::kCity3,
                                    Slice::kCity4};
  intra_service_distances(dataset, cities, options.min_sessions, pdf_values,
                          curve_values);
  add("Cities", std::move(pdf_values), std::move(curve_values));
  pdf_values.clear();
  curve_values.clear();

  // RATs: 4G vs 5G, per service.
  const std::array<Slice, 2> rats{Slice::k4G, Slice::k5G};
  intra_service_distances(dataset, rats, options.min_sessions, pdf_values,
                          curve_values);
  add("RATs", std::move(pdf_values), std::move(curve_values));
  pdf_values.clear();
  curve_values.clear();

  // Apps (4G) and Apps (5G): inter-service distances within one RAT.
  inter_service_distances(dataset, Slice::k4G, options.min_sessions,
                          pdf_values, curve_values);
  add("Apps (4G)", std::move(pdf_values), std::move(curve_values));
  pdf_values.clear();
  curve_values.clear();

  inter_service_distances(dataset, Slice::k5G, options.min_sessions,
                          pdf_values, curve_values);
  add("Apps (5G)", std::move(pdf_values), std::move(curve_values));

  return report;
}

}  // namespace mtd
