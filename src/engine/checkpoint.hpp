// Engine checkpoints: suspend a streaming replay — at a day boundary or at
// an arbitrary minute — and resume it bit-identically later.
//
// The resume point is one number, clock_minute: the first absolute minute
// not yet streamed. The per-(BS, day) generation streams re-seed from
// (trace seed, BS id, day) at every day boundary (see
// TraceGenerator::bs_day_rng), so the trace seed plus clock_minute describe
// every stream and a checkpoint is O(1) in network size — mid-day ones
// included (the v2 format, DESIGN.md section 13): a mid-day resume replays
// its day's prefix without emitting it, which brings every stream, event
// sequence number and partial-day volume back to clock_minute. The
// document records the full replay identity (seed, horizon, rate scaling,
// a fingerprint of the network topology) so a resume against a different
// scenario is rejected instead of silently diverging, plus cumulative
// counters so telemetry continues instead of restarting from zero. It is
// persisted in one place, the trace store's manifest, which commits it
// together with the data it covers (see store_runner.hpp). Only the v2
// format loads; documents in the retired v1 day-boundary format raise
// ParseError. The day cursor, per-shard cursors, RNG-stream summary and
// per-BS raw stream cursors that older v2 writers added are ignored on
// load.
#pragma once

#include <cstdint>

#include "common/time_utils.hpp"
#include "dataset/network.hpp"
#include "io/json.hpp"

namespace mtd {

/// Serializable engine state taken at a day boundary or at a
/// minute-interval mark inside a day (see EngineConfig::
/// checkpoint_interval_minutes).
struct EngineCheckpoint {
  // Replay identity — must match on resume.
  std::uint64_t seed = 0;
  std::size_t num_days = 0;
  double rate_scale = 1.0;
  double weekend_rate_factor = 0.85;
  std::uint64_t network_fingerprint = 0;

  // Cursor: the first absolute minute not yet streamed.
  std::uint64_t clock_minute = 0;

  // Cumulative per-kind totals, for telemetry continuity across resumes.
  // "Emitted" counts events produced into the rings (including any the
  // backpressure policy later dropped); segment/packet counters are zero
  // unless the engine's event_kinds mask enables those expansions.
  std::uint64_t sessions_emitted = 0;
  std::uint64_t minutes_emitted = 0;
  std::uint64_t segments_emitted = 0;
  std::uint64_t packets_emitted = 0;
  /// Volume of the completed days; a mid-day checkpoint leaves out its
  /// day's partial volume, which the resume's replay regenerates.
  double volume_mb = 0.0;

  /// Day holding the first unstreamed minute.
  [[nodiscard]] std::size_t next_day() const noexcept {
    return static_cast<std::size_t>(clock_minute / kMinutesPerDay);
  }
  /// True when the whole trace horizon has been streamed.
  [[nodiscard]] bool complete() const noexcept {
    return next_day() >= num_days;
  }

  /// True when clock_minute sits strictly inside a day (checkpoints taken
  /// at a minute-interval mark).
  [[nodiscard]] bool mid_day() const noexcept {
    return clock_minute % kMinutesPerDay != 0;
  }

  /// Serializes in the v2 format. from_json accepts only v2 documents;
  /// any other format raises ParseError naming the expected one.
  [[nodiscard]] Json to_json() const;
  [[nodiscard]] static EngineCheckpoint from_json(const Json& json);
};

/// Order- and content-sensitive FNV-1a digest of the network topology
/// (per-BS rates, deciles, regions, cities, RATs). Two networks with the
/// same fingerprint stream the same trace for the same seed.
[[nodiscard]] std::uint64_t network_fingerprint(const Network& network);

}  // namespace mtd
