#include "engine/checkpoint.hpp"

#include <bit>

#include "common/error.hpp"
#include "common/fnv.hpp"

namespace mtd {

namespace {

constexpr const char* kFormatV2 = "mtd-engine-checkpoint-v2";

}  // namespace

std::uint64_t network_fingerprint(const Network& network) {
  std::uint64_t h = fnv1a64_word(kFnvOffsetBasis, network.size());
  for (const BaseStation& bs : network.base_stations()) {
    h = fnv1a64_word(h, bs.id);
    h = fnv1a64_word(h, (static_cast<std::uint64_t>(bs.decile) << 24) |
                            (static_cast<std::uint64_t>(bs.region) << 16) |
                            (static_cast<std::uint64_t>(bs.city) << 8) |
                            static_cast<std::uint64_t>(bs.rat));
    h = fnv1a64_word(h, std::bit_cast<std::uint64_t>(bs.peak_rate));
    h = fnv1a64_word(h, std::bit_cast<std::uint64_t>(bs.offpeak_scale));
  }
  return h;
}

Json EngineCheckpoint::to_json() const {
  JsonObject obj;
  obj.emplace("format", kFormatV2);
  obj.emplace("seed", to_hex(seed));
  obj.emplace("num_days", num_days);
  obj.emplace("rate_scale", rate_scale);
  obj.emplace("weekend_rate_factor", weekend_rate_factor);
  obj.emplace("network_fingerprint", to_hex(network_fingerprint));
  obj.emplace("clock_minute", static_cast<double>(clock_minute));
  // Cumulative counters are hex-encoded like the seeds: a long-lived engine
  // can push them past 2^53, where JSON doubles silently round.
  obj.emplace("sessions_emitted", to_hex(sessions_emitted));
  obj.emplace("minutes_emitted", to_hex(minutes_emitted));
  obj.emplace("segments_emitted", to_hex(segments_emitted));
  obj.emplace("packets_emitted", to_hex(packets_emitted));
  obj.emplace("volume_mb", volume_mb);
  return Json(std::move(obj));
}

EngineCheckpoint EngineCheckpoint::from_json(const Json& json) {
  if (!json.contains("format") ||
      json.at("format").as_string() != kFormatV2) {
    throw ParseError(std::string("EngineCheckpoint: not a ") + kFormatV2 +
                     " file");
  }
  EngineCheckpoint cp;
  cp.seed = from_hex(json.at("seed").as_string(), "EngineCheckpoint.seed");
  cp.num_days = json_uint<std::size_t>(json.at("num_days"),
                                       "EngineCheckpoint.num_days");
  cp.rate_scale = json.at("rate_scale").as_number();
  cp.weekend_rate_factor = json.at("weekend_rate_factor").as_number();
  cp.network_fingerprint =
      from_hex(json.at("network_fingerprint").as_string(),
               "EngineCheckpoint.network_fingerprint");
  cp.clock_minute = json_uint<std::uint64_t>(json.at("clock_minute"),
                                             "EngineCheckpoint.clock_minute");
  cp.sessions_emitted = from_hex(json.at("sessions_emitted").as_string(),
                                 "EngineCheckpoint.sessions_emitted");
  cp.minutes_emitted = from_hex(json.at("minutes_emitted").as_string(),
                                "EngineCheckpoint.minutes_emitted");
  cp.segments_emitted = from_hex(json.at("segments_emitted").as_string(),
                                 "EngineCheckpoint.segments_emitted");
  cp.packets_emitted = from_hex(json.at("packets_emitted").as_string(),
                                "EngineCheckpoint.packets_emitted");
  cp.volume_mb = json.at("volume_mb").as_number();
  return cp;
}

}  // namespace mtd
