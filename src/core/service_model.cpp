#include "core/service_model.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace mtd {

ServiceModel ServiceModel::fit(const MeasurementDataset& dataset,
                               std::size_t service,
                               const VolumeModelOptions& options) {
  const ServiceSliceStats& stats = dataset.slice(service, Slice::kTotal);
  require(stats.sessions >= 100,
          "ServiceModel::fit: too few sessions to fit a model");
  VolumeModel volume = VolumeModel::fit(stats.volume_pdf, options);
  DurationModel duration = DurationModel::fit(stats.dv_curve);
  const double share = dataset.session_shares()[service];
  return ServiceModel(service_catalog()[service].name, std::move(volume),
                      duration, share);
}

ServiceModel::Draw ServiceModel::sample(Rng& rng,
                                        double duration_jitter_sigma) const {
  Draw draw{};
  draw.volume_mb = std::max(volume_.mixture().sample(rng), 1e-4);
  double d = duration_.duration(draw.volume_mb);
  if (duration_jitter_sigma > 0.0) {
    d *= rng.log10_normal(0.0, duration_jitter_sigma);
  }
  draw.duration_s = std::clamp(d, 1.0, 6.0 * 3600.0);
  return draw;
}

Json ServiceModel::to_json() const {
  JsonObject obj;
  obj.emplace("name", name_);
  obj.emplace("session_share", session_share_);
  obj.emplace("mu", volume_.main().mu());
  obj.emplace("sigma", volume_.main().sigma());
  JsonArray peaks;
  for (const ResidualPeak& p : volume_.peaks()) {
    JsonObject peak;
    peak.emplace("k", p.k);
    peak.emplace("mu", p.mu);
    peak.emplace("sigma", p.sigma);
    peak.emplace("lo", p.lo);
    peak.emplace("hi", p.hi);
    peaks.emplace_back(std::move(peak));
  }
  obj.emplace("peaks", std::move(peaks));
  obj.emplace("alpha", duration_.alpha());
  obj.emplace("beta", duration_.beta());
  obj.emplace("r_squared", duration_.r_squared());
  return Json(std::move(obj));
}

ServiceModel ServiceModel::from_json(const Json& json) {
  const Log10Normal main(json.at("mu").as_number(),
                         json.at("sigma").as_number());
  std::vector<ResidualPeak> peaks;
  for (const Json& p : json.at("peaks").as_array()) {
    ResidualPeak peak;
    peak.k = p.at("k").as_number();
    peak.mu = p.at("mu").as_number();
    peak.sigma = p.at("sigma").as_number();
    peak.lo = p.at("lo").as_number();
    peak.hi = p.at("hi").as_number();
    peaks.push_back(peak);
  }
  VolumeModel volume(main, std::move(peaks));
  DurationModel duration(json.at("alpha").as_number(),
                         json.at("beta").as_number(),
                         json.at("r_squared").as_number());
  return ServiceModel(json.at("name").as_string(), std::move(volume), duration,
                      json.at("session_share").as_number());
}

ModelRegistry ModelRegistry::fit(const MeasurementDataset& dataset,
                                 const VolumeModelOptions& options) {
  ModelRegistry registry;
  registry.arrivals_ = ArrivalModel::fit(dataset);
  std::vector<std::size_t> fitted;
  for (std::size_t s = 0; s < dataset.num_services(); ++s) {
    const ServiceSliceStats& stats = dataset.slice(s, Slice::kTotal);
    if (stats.sessions < 100) continue;  // not enough data to fit
    fitted.push_back(s);
  }
  // One job per service into its own slot; an error surfaces as the lowest
  // failing service's, as in a serial loop.
  std::vector<std::optional<ServiceModel>> models(fitted.size());
  parallel_for(fitted.size(), [&](std::size_t i) {
    models[i].emplace(ServiceModel::fit(dataset, fitted[i], options));
  });
  registry.services_.reserve(models.size());
  for (std::optional<ServiceModel>& model : models) {
    registry.services_.push_back(std::move(*model));
  }
  require(!registry.services_.empty(),
          "ModelRegistry::fit: no service had enough sessions");
  return registry;
}

const ServiceModel& ModelRegistry::by_name(std::string_view name) const {
  for (const ServiceModel& model : services_) {
    if (model.name() == name) return model;
  }
  throw InvalidArgument("ModelRegistry: no model for service '" +
                        std::string(name) + "'");
}

bool ModelRegistry::has(std::string_view name) const noexcept {
  for (const ServiceModel& model : services_) {
    if (model.name() == name) return true;
  }
  return false;
}

Json ModelRegistry::to_json() const {
  JsonObject root;
  JsonArray services;
  for (const ServiceModel& model : services_) {
    services.push_back(model.to_json());
  }
  root.emplace("services", std::move(services));

  JsonArray classes;
  for (const ArrivalFitReport& report : arrivals_.classes()) {
    JsonObject cls;
    cls.emplace("peak_mu", report.model.peak_mu);
    cls.emplace("peak_sigma", report.model.peak_sigma);
    cls.emplace("offpeak_scale", report.model.offpeak_scale);
    cls.emplace("sigma_over_mu", report.sigma_over_mu);
    cls.emplace("day_emd", report.day_emd);
    classes.emplace_back(std::move(cls));
  }
  JsonArray shares;
  for (double share : arrivals_.service_shares()) shares.emplace_back(share);
  JsonObject arrivals;
  arrivals.emplace("classes", std::move(classes));
  arrivals.emplace("service_shares", std::move(shares));
  root.emplace("arrivals", std::move(arrivals));
  return Json(std::move(root));
}

void ModelRegistry::save(const std::string& path) const {
  write_file(path, to_json().dump(2));
}

ModelRegistry ModelRegistry::from_json(const Json& json) {
  ModelRegistry registry;
  for (const Json& service : json.at("services").as_array()) {
    registry.services_.push_back(ServiceModel::from_json(service));
  }
  const Json& arrivals = json.at("arrivals");
  std::vector<ArrivalFitReport> classes;
  for (const Json& cls : arrivals.at("classes").as_array()) {
    ArrivalFitReport report;
    report.model.peak_mu = cls.at("peak_mu").as_number();
    report.model.peak_sigma = cls.at("peak_sigma").as_number();
    report.model.offpeak_scale = cls.at("offpeak_scale").as_number();
    report.sigma_over_mu = cls.at("sigma_over_mu").as_number();
    report.day_emd = cls.at("day_emd").as_number();
    classes.push_back(report);
  }
  std::vector<double> shares;
  for (const Json& share : arrivals.at("service_shares").as_array()) {
    shares.push_back(share.as_number());
  }
  registry.arrivals_ = ArrivalModel::from_parts(std::move(classes),
                                                std::move(shares));
  return registry;
}

ModelRegistry ModelRegistry::load(const std::string& path) {
  return from_json(Json::parse(read_file(path)));
}

}  // namespace mtd
