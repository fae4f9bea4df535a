#include "scenario/scenario.hpp"

#include <set>

#include "common/error.hpp"

namespace mtd {

namespace {

/// Rejects keys not in `allowed` (typo protection for scenario files).
void check_keys(const Json& json, const std::set<std::string>& allowed,
                const char* what) {
  for (const auto& [key, value] : json.as_object()) {
    if (!allowed.contains(key)) {
      throw ParseError(std::string(what) + ": unknown key '" + key + "'");
    }
  }
}

double num_or(const Json& json, const char* key, double fallback) {
  return json.contains(key) ? json.at(key).as_number() : fallback;
}

/// `fallback` when `key` is absent, else the value range-checked into T
/// (json_uint): a ParseError naming `what.key` for a negative, fractional
/// or out-of-range number.
template <std::integral T>
T uint_or(const Json& json, const char* key, T fallback, const char* what) {
  return json.contains(key)
             ? json_uint<T>(json.at(key), std::string(what) + "." + key)
             : fallback;
}

}  // namespace

Json to_json(const NetworkConfig& config) {
  JsonObject obj;
  obj.emplace("num_bs", config.num_bs);
  obj.emplace("fraction_5g", config.fraction_5g);
  obj.emplace("first_decile_rate", config.first_decile_rate);
  obj.emplace("last_decile_rate", config.last_decile_rate);
  obj.emplace("offpeak_scale_ratio", config.offpeak_scale_ratio);
  obj.emplace("rate_jitter", config.rate_jitter);
  return Json(std::move(obj));
}

void from_json(const Json& json, NetworkConfig& config) {
  check_keys(json,
             {"num_bs", "fraction_5g", "first_decile_rate",
              "last_decile_rate", "offpeak_scale_ratio", "rate_jitter"},
             "NetworkConfig");
  config.num_bs = uint_or(json, "num_bs", config.num_bs, "NetworkConfig");
  config.fraction_5g = num_or(json, "fraction_5g", config.fraction_5g);
  config.first_decile_rate =
      num_or(json, "first_decile_rate", config.first_decile_rate);
  config.last_decile_rate =
      num_or(json, "last_decile_rate", config.last_decile_rate);
  config.offpeak_scale_ratio =
      num_or(json, "offpeak_scale_ratio", config.offpeak_scale_ratio);
  config.rate_jitter = num_or(json, "rate_jitter", config.rate_jitter);
}

Json to_json(const TraceConfig& config) {
  JsonObject obj;
  obj.emplace("num_days", config.num_days);
  obj.emplace("seed", static_cast<double>(config.seed));
  obj.emplace("rate_scale", config.rate_scale);
  obj.emplace("weekend_rate_factor", config.weekend_rate_factor);
  return Json(std::move(obj));
}

void from_json(const Json& json, TraceConfig& config) {
  check_keys(json,
             {"num_days", "seed", "rate_scale", "weekend_rate_factor"},
             "TraceConfig");
  config.num_days = uint_or(json, "num_days", config.num_days, "TraceConfig");
  config.seed = uint_or(json, "seed", config.seed, "TraceConfig");
  config.rate_scale = num_or(json, "rate_scale", config.rate_scale);
  config.weekend_rate_factor =
      num_or(json, "weekend_rate_factor", config.weekend_rate_factor);
}

Json to_json(const SlicingConfig& config) {
  JsonObject obj;
  obj.emplace("num_antennas", config.num_antennas);
  obj.emplace("eval_days", config.eval_days);
  obj.emplace("calibration_days", config.calibration_days);
  obj.emplace("antenna_decile", static_cast<double>(config.antenna_decile));
  obj.emplace("sla_quantile", config.sla_quantile);
  obj.emplace("seed", static_cast<double>(config.seed));
  obj.emplace("fig12_service", config.fig12_service);
  obj.emplace("fig12_antenna", config.fig12_antenna);
  return Json(std::move(obj));
}

void from_json(const Json& json, SlicingConfig& config) {
  check_keys(json,
             {"num_antennas", "eval_days", "calibration_days",
              "antenna_decile", "sla_quantile", "seed", "fig12_service",
              "fig12_antenna"},
             "SlicingConfig");
  config.num_antennas =
      uint_or(json, "num_antennas", config.num_antennas, "SlicingConfig");
  config.eval_days =
      uint_or(json, "eval_days", config.eval_days, "SlicingConfig");
  config.calibration_days =
      uint_or(json, "calibration_days",
              config.calibration_days, "SlicingConfig");
  config.antenna_decile =
      uint_or(json, "antenna_decile", config.antenna_decile, "SlicingConfig");
  config.sla_quantile = num_or(json, "sla_quantile", config.sla_quantile);
  config.seed = uint_or(json, "seed", config.seed, "SlicingConfig");
  if (json.contains("fig12_service")) {
    config.fig12_service = json.at("fig12_service").as_string();
  }
  config.fig12_antenna =
      uint_or(json, "fig12_antenna", config.fig12_antenna, "SlicingConfig");
}

namespace {

const char* packing_name(PackingPolicy policy) {
  switch (policy) {
    case PackingPolicy::kFirstFitDecreasing: return "first_fit_decreasing";
    case PackingPolicy::kBestFitDecreasing: return "best_fit_decreasing";
    case PackingPolicy::kWorstFitDecreasing: return "worst_fit_decreasing";
    case PackingPolicy::kNoConsolidation: return "no_consolidation";
  }
  return "first_fit_decreasing";
}

PackingPolicy packing_from(const std::string& name) {
  if (name == "first_fit_decreasing") {
    return PackingPolicy::kFirstFitDecreasing;
  }
  if (name == "best_fit_decreasing") return PackingPolicy::kBestFitDecreasing;
  if (name == "worst_fit_decreasing") {
    return PackingPolicy::kWorstFitDecreasing;
  }
  if (name == "no_consolidation") return PackingPolicy::kNoConsolidation;
  throw ParseError("VranConfig: unknown packing policy '" + name + "'");
}

}  // namespace

Json to_json(const VranConfig& config) {
  JsonObject obj;
  obj.emplace("num_edge_sites", config.num_edge_sites);
  obj.emplace("rus_per_site", config.rus_per_site);
  obj.emplace("num_days", config.num_days);
  obj.emplace("ru_decile", static_cast<double>(config.ru_decile));
  obj.emplace("seed", static_cast<double>(config.seed));
  obj.emplace("ps_capacity_mbps", config.ps.capacity_mbps);
  obj.emplace("ps_idle_w", config.ps.idle_w);
  obj.emplace("ps_max_w", config.ps.max_w);
  obj.emplace("packing", packing_name(config.packing));
  obj.emplace("series_start_minute", config.series_start_minute);
  obj.emplace("series_seconds", config.series_seconds);
  return Json(std::move(obj));
}

void from_json(const Json& json, VranConfig& config) {
  check_keys(json,
             {"num_edge_sites", "rus_per_site", "num_days", "ru_decile",
              "seed", "ps_capacity_mbps", "ps_idle_w", "ps_max_w", "packing",
              "series_start_minute", "series_seconds"},
             "VranConfig");
  config.num_edge_sites =
      uint_or(json, "num_edge_sites", config.num_edge_sites, "VranConfig");
  config.rus_per_site =
      uint_or(json, "rus_per_site", config.rus_per_site, "VranConfig");
  config.num_days = uint_or(json, "num_days", config.num_days, "VranConfig");
  config.ru_decile = uint_or(json, "ru_decile", config.ru_decile, "VranConfig");
  config.seed = uint_or(json, "seed", config.seed, "VranConfig");
  config.ps.capacity_mbps =
      num_or(json, "ps_capacity_mbps", config.ps.capacity_mbps);
  config.ps.idle_w = num_or(json, "ps_idle_w", config.ps.idle_w);
  config.ps.max_w = num_or(json, "ps_max_w", config.ps.max_w);
  if (json.contains("packing")) {
    config.packing = packing_from(json.at("packing").as_string());
  }
  config.series_start_minute =
      uint_or(json, "series_start_minute",
              config.series_start_minute, "VranConfig");
  config.series_seconds =
      uint_or(json, "series_seconds", config.series_seconds, "VranConfig");
}

Json to_json(const MobilityConfig& config) {
  JsonObject obj;
  obj.emplace("p_stationary", config.p_stationary);
  obj.emplace("p_pedestrian", config.p_pedestrian);
  obj.emplace("p_vehicular", config.p_vehicular);
  obj.emplace("pedestrian_dwell_median_s", config.pedestrian_dwell_median_s);
  obj.emplace("vehicular_dwell_median_s", config.vehicular_dwell_median_s);
  obj.emplace("dwell_sigma_log10", config.dwell_sigma_log10);
  obj.emplace("max_segments", config.max_segments);
  return Json(std::move(obj));
}

void from_json(const Json& json, MobilityConfig& config) {
  check_keys(json,
             {"p_stationary", "p_pedestrian", "p_vehicular",
              "pedestrian_dwell_median_s", "vehicular_dwell_median_s",
              "dwell_sigma_log10", "max_segments"},
             "MobilityConfig");
  config.p_stationary = num_or(json, "p_stationary", config.p_stationary);
  config.p_pedestrian = num_or(json, "p_pedestrian", config.p_pedestrian);
  config.p_vehicular = num_or(json, "p_vehicular", config.p_vehicular);
  config.pedestrian_dwell_median_s =
      num_or(json, "pedestrian_dwell_median_s",
             config.pedestrian_dwell_median_s);
  config.vehicular_dwell_median_s = num_or(
      json, "vehicular_dwell_median_s", config.vehicular_dwell_median_s);
  config.dwell_sigma_log10 =
      num_or(json, "dwell_sigma_log10", config.dwell_sigma_log10);
  config.max_segments =
      uint_or(json, "max_segments", config.max_segments, "MobilityConfig");
}

Json to_json(const PacketScheduleConfig& config) {
  JsonObject obj;
  obj.emplace("mtu_bytes", static_cast<double>(config.mtu_bytes));
  obj.emplace("mean_burst_packets", config.mean_burst_packets);
  obj.emplace("duty_cycle", config.duty_cycle);
  obj.emplace("max_packets", config.max_packets);
  return Json(std::move(obj));
}

void from_json(const Json& json, PacketScheduleConfig& config) {
  check_keys(json,
             {"mtu_bytes", "mean_burst_packets", "duty_cycle", "max_packets"},
             "PacketScheduleConfig");
  config.mtu_bytes =
      uint_or(json, "mtu_bytes", config.mtu_bytes, "PacketScheduleConfig");
  config.mean_burst_packets =
      num_or(json, "mean_burst_packets", config.mean_burst_packets);
  config.duty_cycle = num_or(json, "duty_cycle", config.duty_cycle);
  config.max_packets =
      uint_or(json, "max_packets", config.max_packets, "PacketScheduleConfig");
}

namespace {

BackpressurePolicy backpressure_from(const std::string& name) {
  if (name == "block") return BackpressurePolicy::kBlock;
  if (name == "drop") return BackpressurePolicy::kDropNewest;
  throw ParseError("EngineConfig: unknown backpressure policy '" + name +
                   "'");
}

SinkErrorPolicy sink_error_policy_from(const std::string& name) {
  if (name == "fail_fast") return SinkErrorPolicy::kFailFast;
  if (name == "degrade") return SinkErrorPolicy::kDegrade;
  throw ParseError("EngineConfig: unknown sink error policy '" + name + "'");
}

GeneratorKernel generator_kernel_from(const std::string& name) {
  if (name == "scalar") return GeneratorKernel::kScalar;
  if (name == "batch") return GeneratorKernel::kBatch;
  throw ParseError("EngineConfig: unknown generator kernel '" + name + "'");
}

}  // namespace

Json to_json(const EngineConfig& config) {
  JsonObject obj;
  obj.emplace("num_workers", config.num_workers);
  obj.emplace("queue_capacity", config.queue_capacity);
  obj.emplace("batch_size", config.batch_size);
  obj.emplace("generator_kernel", to_string(config.kernel));
  JsonArray kinds;
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    const auto kind = static_cast<EventKind>(k);
    if (config.event_kinds.contains(kind)) {
      kinds.emplace_back(to_string(kind));
    }
  }
  obj.emplace("event_kinds", Json(std::move(kinds)));
  obj.emplace("mobility", to_json(config.mobility));
  obj.emplace("packet_schedule", to_json(config.packet));
  obj.emplace("backpressure", to_string(config.backpressure));
  obj.emplace("time_scale", config.time_scale);
  obj.emplace("telemetry_period_s", config.telemetry_period_s);
  obj.emplace("stop_after_days", config.stop_after_days);
  obj.emplace("checkpoint_interval_minutes", config.checkpoint_interval_minutes);
  obj.emplace("sink_error_policy", to_string(config.sink_error_policy));
  obj.emplace("watchdog_timeout_s", config.watchdog_timeout_s);
  // config.fault (a live injector pointer) is intentionally not serialized.
  return Json(std::move(obj));
}

void from_json(const Json& json, EngineConfig& config) {
  check_keys(json,
             {"num_workers", "queue_capacity", "batch_size",
              "generator_kernel", "event_kinds",
              "mobility", "packet_schedule", "backpressure", "time_scale",
              "telemetry_period_s", "stop_after_days",
              "checkpoint_interval_minutes", "sink_error_policy",
              "watchdog_timeout_s"},
             "EngineConfig");
  config.num_workers =
      uint_or(json, "num_workers", config.num_workers, "EngineConfig");
  config.queue_capacity =
      uint_or(json, "queue_capacity", config.queue_capacity, "EngineConfig");
  config.batch_size =
      uint_or(json, "batch_size", config.batch_size, "EngineConfig");
  if (json.contains("generator_kernel")) {
    config.kernel =
        generator_kernel_from(json.at("generator_kernel").as_string());
  }
  if (json.contains("event_kinds")) {
    EventKindMask mask;
    for (const Json& kind : json.at("event_kinds").as_array()) {
      mask.set(event_kind_from_name(kind.as_string()));
    }
    config.event_kinds = mask;
  }
  if (json.contains("mobility")) {
    from_json(json.at("mobility"), config.mobility);
  }
  if (json.contains("packet_schedule")) {
    from_json(json.at("packet_schedule"), config.packet);
  }
  if (json.contains("backpressure")) {
    config.backpressure =
        backpressure_from(json.at("backpressure").as_string());
  }
  config.time_scale = num_or(json, "time_scale", config.time_scale);
  config.telemetry_period_s =
      num_or(json, "telemetry_period_s", config.telemetry_period_s);
  config.stop_after_days =
      uint_or(json, "stop_after_days", config.stop_after_days, "EngineConfig");
  config.checkpoint_interval_minutes =
      uint_or(json, "checkpoint_interval_minutes",
              config.checkpoint_interval_minutes, "EngineConfig");
  if (json.contains("sink_error_policy")) {
    config.sink_error_policy =
        sink_error_policy_from(json.at("sink_error_policy").as_string());
  }
  config.watchdog_timeout_s =
      num_or(json, "watchdog_timeout_s", config.watchdog_timeout_s);
}

Json Scenario::to_json() const {
  JsonObject obj;
  obj.emplace("network", mtd::to_json(network));
  obj.emplace("trace", mtd::to_json(trace));
  obj.emplace("slicing", mtd::to_json(slicing));
  obj.emplace("vran", mtd::to_json(vran));
  obj.emplace("engine", mtd::to_json(engine));
  return Json(std::move(obj));
}

Scenario Scenario::from_json(const Json& json) {
  check_keys(json, {"network", "trace", "slicing", "vran", "engine"},
             "Scenario");
  Scenario scenario;
  if (json.contains("network")) {
    mtd::from_json(json.at("network"), scenario.network);
  }
  if (json.contains("trace")) {
    mtd::from_json(json.at("trace"), scenario.trace);
  }
  if (json.contains("slicing")) {
    mtd::from_json(json.at("slicing"), scenario.slicing);
    validate(scenario.slicing, "Scenario.slicing");
  }
  if (json.contains("vran")) {
    mtd::from_json(json.at("vran"), scenario.vran);
    validate(scenario.vran, "Scenario.vran");
  }
  if (json.contains("engine")) {
    mtd::from_json(json.at("engine"), scenario.engine);
  }
  return scenario;
}

Scenario Scenario::load(const std::string& path) {
  return from_json(Json::parse(read_file(path)));
}

void Scenario::save(const std::string& path) const {
  write_file(path, to_json().dump(2));
}

}  // namespace mtd
