// Engine telemetry: lock-free counters and periodic JSON snapshots.
//
// Shard workers and the consumer thread update disjoint sets of atomic
// counters (relaxed ordering; the numbers feed monitoring, not control
// flow). Counters are kept per event kind (minute, session, segment,
// packet — see events/stream_event.hpp): the conservation identity
// produced == consumed + dropped + sink_errors + discarded holds for every
// kind independently. Snapshots aggregate them into a consistent-enough
// view — exact once the engine has drained — and serialize to a flat JSON
// object (plus a per-kind "kinds" object) that benches and the example
// binary print as one line per snapshot.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "events/stream_event.hpp"
#include "io/json.hpp"

namespace mtd {

/// Counter block of one event kind. Drops happen under the kDropNewest
/// backpressure policy, sink errors under SinkErrorPolicy::kDegrade,
/// discards while draining on an abort.
struct EventKindCounters {
  std::uint64_t produced = 0;
  std::uint64_t consumed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t sink_errors = 0;
  std::uint64_t discarded = 0;

  /// Conservation identity of one kind: every produced event was delivered,
  /// shed by backpressure, rejected by the sink, or discarded on abort.
  [[nodiscard]] bool accounted_for() const noexcept {
    return produced == consumed + dropped + sink_errors + discarded;
  }
};

/// Point-in-time aggregate of the engine counters.
struct TelemetrySnapshot {
  double wall_seconds = 0.0;           // since run() started
  std::uint64_t clock_minute = 0;      // virtual-clock low-water mark
  std::array<EventKindCounters, kNumEventKinds> kinds{};
  double volume_mb = 0.0;              // traffic delivered to the sink
  std::uint64_t queue_depth = 0;       // sum of ring occupancies now
  double producer_stall_seconds = 0.0; // blocked-on-full time, all workers
  double sessions_per_second = 0.0;    // consumed / wall
  double events_per_second = 0.0;      // consumed, all kinds / wall
  double mbytes_per_second = 0.0;      // delivered volume / wall

  [[nodiscard]] const EventKindCounters& of(EventKind kind) const noexcept {
    return kinds[static_cast<std::size_t>(kind)];
  }

  [[nodiscard]] bool sessions_accounted_for() const noexcept {
    return of(EventKind::kSession).accounted_for();
  }
  /// The conservation identity over every event kind.
  [[nodiscard]] bool accounted_for() const noexcept {
    for (const EventKindCounters& c : kinds) {
      if (!c.accounted_for()) return false;
    }
    return true;
  }

  /// Flat JSON object of the scalar fields; the "kinds" member carries the
  /// per-kind counter blocks.
  [[nodiscard]] Json to_json() const;
  /// Inverse of to_json (round-trip exact for counters below 2^53).
  [[nodiscard]] static TelemetrySnapshot from_json(const Json& json);
};

/// Shared counter block. One PerWorker entry per shard keeps producer-side
/// counters uncontended (each worker writes only its own cache line).
class Telemetry {
 public:
  struct alignas(64) PerWorker {
    std::array<std::atomic<std::uint64_t>, kNumEventKinds> produced{};
    std::array<std::atomic<std::uint64_t>, kNumEventKinds> dropped{};
    std::atomic<std::uint64_t> stall_ns{0};
    /// Absolute virtual minute this worker has fully produced, +1 (0 = none).
    std::atomic<std::uint64_t> produced_minute{0};
    /// Minutes of a mid-day resume's day prefix this worker has replayed
    /// (regenerated without emitting); the watchdog counts them as
    /// progress.
    std::atomic<std::uint64_t> replayed_minutes{0};

    void count_dropped(EventKind kind) noexcept {
      dropped[static_cast<std::size_t>(kind)].fetch_add(
          1, std::memory_order_relaxed);
    }
  };

  explicit Telemetry(std::size_t num_workers);

  /// Re-arms the wall clock and seeds cumulative per-kind totals
  /// (checkpoint resume continues counting where the interrupted run
  /// stopped; the prior counts apply to produced and consumed alike — a
  /// checkpointed event was both).
  void start(const std::array<std::uint64_t, kNumEventKinds>& prior,
             double prior_volume_mb);

  [[nodiscard]] PerWorker& worker(std::size_t i) { return workers_[i]; }

  // Consumer-side counters (single writer).
  /// Counts one delivered ring batch: one atomic add per non-zero kind
  /// instead of one per event — per-event fetch_add was measurable at the
  /// 10M events/s the batch kernel sustains.
  void count_consumed_bulk(
      const std::array<std::uint64_t, kNumEventKinds>& counts,
      double volume_mb) noexcept {
    for (std::size_t k = 0; k < kNumEventKinds; ++k) {
      if (counts[k] != 0) {
        consumed_[k].fetch_add(counts[k], std::memory_order_relaxed);
      }
    }
    add_volume(volume_mb);
  }
  /// A sink delivery failed under SinkErrorPolicy::kDegrade.
  void count_sink_error(EventKind kind) noexcept {
    sink_errors_[static_cast<std::size_t>(kind)].fetch_add(
        1, std::memory_order_relaxed);
  }
  /// An event was drained without delivery while aborting.
  void count_discarded(EventKind kind) noexcept {
    discarded_[static_cast<std::size_t>(kind)].fetch_add(
        1, std::memory_order_relaxed);
  }

  /// Aggregates all counters. `queue_depth` is supplied by the engine (it
  /// owns the rings).
  [[nodiscard]] TelemetrySnapshot snapshot(std::uint64_t queue_depth) const;

 private:
  // Single consumer writes volume_mb_; the CAS loop never spins in
  // practice, it exists because fetch_add on atomic<double> is C++20
  // library support we cannot rely on everywhere.
  void add_volume(double volume_mb) noexcept {
    if (volume_mb == 0.0) return;
    double cur = volume_mb_.load(std::memory_order_relaxed);
    while (!volume_mb_.compare_exchange_weak(cur, cur + volume_mb,
                                             std::memory_order_relaxed)) {
    }
  }

  std::vector<PerWorker> workers_;
  std::array<std::atomic<std::uint64_t>, kNumEventKinds> consumed_{};
  std::array<std::atomic<std::uint64_t>, kNumEventKinds> sink_errors_{};
  std::array<std::atomic<std::uint64_t>, kNumEventKinds> discarded_{};
  std::atomic<double> volume_mb_{0.0};
  // Carried over from a resumed run.
  std::array<std::uint64_t, kNumEventKinds> base_{};
  double base_volume_mb_ = 0.0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mtd
