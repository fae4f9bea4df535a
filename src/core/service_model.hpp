// The complete per-service session-level model and the model registry.
//
// Each service is fully characterized by the parameter tuple
//   [mu_s, sigma_s, {k_{s,n}, mu_{s,n}, sigma_{s,n}}_n, alpha_s, beta_s]
// (Sec. 5.4) - the main log-normal, the residual peaks, and the power law.
// The registry fits all services of a dataset, serializes the tuples to
// JSON (the paper's public release artifact) and samples synthetic sessions:
// volume from F~_s, duration via the inverse power law, throughput as the
// ratio.
#pragma once

#include <string>
#include <vector>

#include "core/arrival_model.hpp"
#include "core/duration_model.hpp"
#include "core/volume_model.hpp"
#include "dataset/measurement.hpp"
#include "io/json.hpp"

namespace mtd {

/// The fitted session-level model of one mobile service.
class ServiceModel {
 public:
  ServiceModel(std::string name, VolumeModel volume, DurationModel duration,
               double session_share)
      : name_(std::move(name)),
        volume_(std::move(volume)),
        duration_(duration),
        session_share_(session_share) {}

  /// Fits volume and duration models from the dataset's total slice.
  static ServiceModel fit(const MeasurementDataset& dataset,
                          std::size_t service,
                          const VolumeModelOptions& options = {});

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const VolumeModel& volume() const noexcept { return volume_; }
  [[nodiscard]] const DurationModel& duration() const noexcept {
    return duration_;
  }
  [[nodiscard]] double session_share() const noexcept {
    return session_share_;
  }

  /// One synthetic session: volume x ~ F~_s, duration d = v_s^{-1}(x)
  /// (optionally with log-normal scatter), throughput = x / d.
  struct Draw {
    double volume_mb;
    double duration_s;
    [[nodiscard]] double throughput_mbps() const noexcept {
      return 8.0 * volume_mb / duration_s;
    }
  };
  [[nodiscard]] Draw sample(Rng& rng, double duration_jitter_sigma = 0.0) const;

  [[nodiscard]] Json to_json() const;
  static ServiceModel from_json(const Json& json);

 private:
  std::string name_;
  VolumeModel volume_;
  DurationModel duration_;
  double session_share_ = 0.0;
};

/// All fitted service models plus the arrival model.
class ModelRegistry {
 public:
  /// Fits every service in the dataset (skipping services with too few
  /// sessions to fit) plus the arrival model.
  static ModelRegistry fit(const MeasurementDataset& dataset,
                           const VolumeModelOptions& options = {});

  [[nodiscard]] const std::vector<ServiceModel>& services() const noexcept {
    return services_;
  }
  [[nodiscard]] const ServiceModel& by_name(std::string_view name) const;
  [[nodiscard]] bool has(std::string_view name) const noexcept;
  [[nodiscard]] const ArrivalModel& arrivals() const noexcept {
    return arrivals_;
  }

  [[nodiscard]] Json to_json() const;
  void save(const std::string& path) const;
  /// Loads service models from JSON. The arrival model is restored too.
  static ModelRegistry load(const std::string& path);
  static ModelRegistry from_json(const Json& json);

 private:
  ModelRegistry() = default;

  std::vector<ServiceModel> services_;
  ArrivalModel arrivals_;
};

}  // namespace mtd
