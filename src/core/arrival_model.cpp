#include "core/arrival_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/time_utils.hpp"
#include "math/distributions.hpp"
#include "math/metrics.hpp"

namespace mtd {

std::uint32_t ArrivalClassModel::sample(bool day_phase, Rng& rng) const {
  if (day_phase) {
    const double x = rng.normal(peak_mu, peak_sigma);
    return x <= 0.0 ? 0u : static_cast<std::uint32_t>(std::lround(x));
  }
  const double x = rng.pareto(kOffpeakShape, offpeak_scale);
  return static_cast<std::uint32_t>(std::floor(std::min(x, 1e6)));
}

std::uint32_t ArrivalClassModel::sample_minute(std::size_t minute_of_day,
                                               Rng& rng) const {
  return sample(circadian_day_phase(minute_of_day), rng);
}

ArrivalModel ArrivalModel::fit(const MeasurementDataset& dataset) {
  ArrivalModel model;
  model.classes_.reserve(kNumDeciles);

  for (std::uint8_t d = 0; d < kNumDeciles; ++d) {
    const DecileArrivalStats& stats = dataset.decile_arrivals(d);
    ArrivalFitReport report;

    const double mu = stats.day_stats.mean();
    report.model.peak_mu = std::max(mu, 1e-3);
    // The paper observes sigma ~= mu / 10 across all classes and fixes the
    // ratio; we do the same but keep the empirical ratio as a diagnostic.
    report.model.peak_sigma = report.model.peak_mu / 10.0;
    report.sigma_over_mu =
        mu > 0.0 ? stats.day_stats.stddev() / mu : 0.0;

    // Method of moments for the Pareto scale with fixed shape b:
    // E[X] = b s / (b - 1)  =>  s = E[X] (b - 1) / b.
    constexpr double b = ArrivalClassModel::kOffpeakShape;
    const double night_mean = stats.night_stats.mean();
    report.model.offpeak_scale = std::max(night_mean * (b - 1.0) / b, 1e-3);

    // Goodness of the daytime Gaussian: EMD against the empirical day PDF.
    BinnedPdf empirical = stats.day_pdf;
    empirical.normalize();
    BinnedPdf fitted(empirical.axis());
    const Gaussian gauss(report.model.peak_mu, report.model.peak_sigma);
    for (std::size_t i = 0; i < fitted.size(); ++i) {
      fitted[i] = gauss.pdf(fitted.axis().center(i));
    }
    if (fitted.integral() == 0.0) {
      // A clamped near-zero peak (a decile with no daytime arrivals) makes
      // the Gaussian underflow at every bin centre; its mass all lies in
      // the bin holding peak_mu.
      fitted.add(report.model.peak_mu);
    }
    fitted.normalize();
    report.day_emd = emd(empirical, fitted);

    model.classes_.push_back(report);
  }

  model.shares_ = dataset.session_shares();
  double acc = 0.0;
  for (const double v : model.shares_) acc += v;
  require(acc > 0.0, "ArrivalModel::fit: dataset has no sessions");
  model.service_alias_ = AliasTable(model.shares_);
  return model;
}

ArrivalModel ArrivalModel::from_parts(std::vector<ArrivalFitReport> classes,
                                      std::vector<double> shares) {
  require(!classes.empty(), "ArrivalModel::from_parts: no classes");
  require(!shares.empty(), "ArrivalModel::from_parts: no shares");
  ArrivalModel model;
  model.classes_ = std::move(classes);
  model.shares_ = std::move(shares);
  double acc = 0.0;
  for (const double v : model.shares_) acc += v;
  require(acc > 0.0, "ArrivalModel::from_parts: zero total share");
  model.service_alias_ = AliasTable(model.shares_);
  return model;
}

const ArrivalClassModel& ArrivalModel::class_model(std::uint8_t decile) const {
  require(decile < classes_.size(), "ArrivalModel: bad decile");
  return classes_[decile].model;
}

}  // namespace mtd
