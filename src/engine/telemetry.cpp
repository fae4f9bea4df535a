#include "engine/telemetry.hpp"

#include <algorithm>

namespace mtd {

Telemetry::Telemetry(std::size_t num_workers)
    : workers_(num_workers), start_(std::chrono::steady_clock::now()) {}

void Telemetry::start(
    const std::array<std::uint64_t, kNumEventKinds>& prior,
    double prior_volume_mb) {
  base_ = prior;
  base_volume_mb_ = prior_volume_mb;
  start_ = std::chrono::steady_clock::now();
}

TelemetrySnapshot Telemetry::snapshot(std::uint64_t queue_depth) const {
  TelemetrySnapshot snap;
  snap.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  snap.queue_depth = queue_depth;

  std::uint64_t stall_ns = 0;
  std::uint64_t min_minute = ~std::uint64_t{0};
  for (const PerWorker& w : workers_) {
    for (std::size_t k = 0; k < kNumEventKinds; ++k) {
      snap.kinds[k].produced += w.produced[k].load(std::memory_order_relaxed);
      snap.kinds[k].dropped += w.dropped[k].load(std::memory_order_relaxed);
    }
    stall_ns += w.stall_ns.load(std::memory_order_relaxed);
    min_minute = std::min(
        min_minute, w.produced_minute.load(std::memory_order_relaxed));
  }
  snap.clock_minute = workers_.empty() || min_minute == ~std::uint64_t{0}
                          ? 0
                          : min_minute;
  std::uint64_t consumed_this_run = 0;
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    const std::uint64_t consumed =
        consumed_[k].load(std::memory_order_relaxed);
    consumed_this_run += consumed;
    snap.kinds[k].produced += base_[k];
    snap.kinds[k].consumed = base_[k] + consumed;
    snap.kinds[k].sink_errors =
        sink_errors_[k].load(std::memory_order_relaxed);
    snap.kinds[k].discarded = discarded_[k].load(std::memory_order_relaxed);
  }
  snap.volume_mb =
      base_volume_mb_ + volume_mb_.load(std::memory_order_relaxed);
  snap.producer_stall_seconds = static_cast<double>(stall_ns) * 1e-9;
  if (snap.wall_seconds > 0.0) {
    const std::size_t session = static_cast<std::size_t>(EventKind::kSession);
    snap.sessions_per_second =
        static_cast<double>(consumed_[session].load(
            std::memory_order_relaxed)) /
        snap.wall_seconds;
    snap.events_per_second =
        static_cast<double>(consumed_this_run) / snap.wall_seconds;
    snap.mbytes_per_second =
        (snap.volume_mb - base_volume_mb_) / snap.wall_seconds;
  }
  return snap;
}

Json TelemetrySnapshot::to_json() const {
  JsonObject obj;
  obj.emplace("wall_s", wall_seconds);
  obj.emplace("clock_minute", static_cast<double>(clock_minute));
  obj.emplace("volume_mb", volume_mb);
  obj.emplace("queue_depth", static_cast<double>(queue_depth));
  obj.emplace("producer_stall_s", producer_stall_seconds);
  obj.emplace("sessions_per_s", sessions_per_second);
  obj.emplace("events_per_s", events_per_second);
  obj.emplace("mbytes_per_s", mbytes_per_second);
  JsonObject kinds_obj;
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    const EventKindCounters& c = kinds[k];
    JsonObject kind_obj;
    kind_obj.emplace("produced", static_cast<double>(c.produced));
    kind_obj.emplace("consumed", static_cast<double>(c.consumed));
    kind_obj.emplace("dropped", static_cast<double>(c.dropped));
    kind_obj.emplace("sink_errors", static_cast<double>(c.sink_errors));
    kind_obj.emplace("discarded", static_cast<double>(c.discarded));
    kinds_obj.emplace(to_string(static_cast<EventKind>(k)),
                      Json(std::move(kind_obj)));
  }
  obj.emplace("kinds", Json(std::move(kinds_obj)));
  return Json(std::move(obj));
}

TelemetrySnapshot TelemetrySnapshot::from_json(const Json& json) {
  TelemetrySnapshot snap;
  auto u64 = [&](const Json& node, const char* key) {
    return json_uint<std::uint64_t>(node.at(key), key);
  };
  snap.wall_seconds = json.at("wall_s").as_number();
  snap.clock_minute = u64(json, "clock_minute");
  snap.volume_mb = json.at("volume_mb").as_number();
  snap.queue_depth = u64(json, "queue_depth");
  snap.producer_stall_seconds = json.at("producer_stall_s").as_number();
  snap.sessions_per_second = json.at("sessions_per_s").as_number();
  snap.events_per_second = json.at("events_per_s").as_number();
  snap.mbytes_per_second = json.at("mbytes_per_s").as_number();
  const Json& kinds_obj = json.at("kinds");
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    const Json& kind_obj =
        kinds_obj.at(to_string(static_cast<EventKind>(k)));
    snap.kinds[k].produced = u64(kind_obj, "produced");
    snap.kinds[k].consumed = u64(kind_obj, "consumed");
    snap.kinds[k].dropped = u64(kind_obj, "dropped");
    snap.kinds[k].sink_errors = u64(kind_obj, "sink_errors");
    snap.kinds[k].discarded = u64(kind_obj, "discarded");
  }
  return snap;
}

}  // namespace mtd
