// Checkpoint-based auto-recovery around StreamEngine.
//
// The Supervisor wraps run()/resume() in a bounded restart loop: when a run
// fails with a retryable error (worker fault, watchdog-detected stall,
// transient checkpoint I/O), it reloads the last good checkpoint — a day
// boundary, or any minute-interval mark when the engine runs with
// checkpoint_interval_minutes — and resumes, with exponential backoff
// between attempts (jitter drawn from a seeded RNG, so failure schedules
// replay reproducibly). Because every (BS, day) RNG stream is independent
// and mid-day checkpoints carry the raw stream cursors, the recovered
// stream is bit-identical to an unfailed run either way.
//
// Exactly-once delivery across restarts: every checkpoint is an exact cut
// at the engine's sink, but a run that fails between two checkpoints has
// already delivered events past the last one, and a naive restart would
// replay that tail into the downstream sink twice. The Supervisor
// therefore holds each attempt's events in a private list and hands them
// downstream only from the checkpoint hook, where the list is exactly the
// interval the checkpoint covers; on failure the list is cleared and the
// tail regenerated from the checkpoint. The held window is one checkpoint
// interval (a day, or checkpoint_interval_minutes). Every event kind
// passes through it. The one hole is the downstream sink itself throwing
// mid-flush (its state is then unknown); such errors are
// foreign/non-retryable and end supervision.
//
// The product of a supervised run is a RunReport: every attempt with its
// day range, failure cause, retryability, and the backoff applied — the
// operational record a replay of the paper's 45-day horizon needs when
// transient faults are a matter of when, not if.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.hpp"

namespace mtd {

struct SupervisorConfig {
  /// Restarts after the first attempt; attempts = max_restarts + 1.
  std::size_t max_restarts = 3;
  /// Backoff before restart k is initial * multiplier^(k-1) * (1 + U[0,
  /// jitter)), with U drawn from a seeded RNG (see backoff_seed).
  double backoff_initial_ms = 25.0;
  double backoff_multiplier = 2.0;
  double backoff_jitter = 0.25;
  /// Seed of the backoff-jitter RNG; unset derives it from the trace seed.
  /// Two supervised runs with the same seed and failure schedule apply
  /// identical backoff sequences (asserted in tests), which keeps chaos
  /// runs reproducible end to end.
  std::optional<std::uint64_t> backoff_seed;
};

/// One engine attempt inside a supervised run.
struct SupervisorAttempt {
  std::size_t attempt = 0;      ///< 1-based
  /// Absolute minute the attempt started/resumed from, and the
  /// clock_minute of its last committed checkpoint. RunReport::to_json
  /// also reports them as days (minute / 1440).
  std::uint64_t start_minute = 0;
  std::uint64_t reached_minute = 0;
  std::string error;            ///< empty when the attempt succeeded
  bool retryable = false;
  double backoff_ms = 0.0;      ///< wait applied before the next attempt
};

/// Outcome of a supervised run. `result` is meaningful when `succeeded`.
struct RunReport {
  bool succeeded = false;
  std::vector<SupervisorAttempt> attempts;
  EngineResult result;

  [[nodiscard]] std::size_t restarts() const noexcept {
    return attempts.empty() ? 0 : attempts.size() - 1;
  }
  /// Flat JSON for ops tooling: outcome plus the per-attempt record.
  [[nodiscard]] Json to_json() const;
};

class Supervisor {
 public:
  /// `network` must outlive the Supervisor. A FaultInjector armed in
  /// `engine_config.fault` is honored by every attempt.
  Supervisor(const Network& network, const TraceConfig& trace,
             EngineConfig engine_config = {}, SupervisorConfig config = {});

  /// Supervised equivalent of StreamEngine::run. Never throws for
  /// retryable engine failures while restart budget remains; when the
  /// budget is exhausted or the failure is not retryable, the report
  /// records every attempt and `succeeded` is false.
  [[nodiscard]] RunReport run(EventSink& sink);

  /// Supervised equivalent of StreamEngine::resume.
  [[nodiscard]] RunReport resume(const EngineCheckpoint& from, EventSink& sink);

  /// Telemetry passthrough, re-registered on every attempt's engine.
  void on_snapshot(std::function<void(const TelemetrySnapshot&)> callback) {
    snapshot_callback_ = std::move(callback);
  }

  [[nodiscard]] const SupervisorConfig& config() const noexcept {
    return config_;
  }

 private:
  [[nodiscard]] RunReport supervise(std::optional<EngineCheckpoint> from,
                                    EventSink& sink);

  const Network* network_;
  TraceConfig trace_;
  EngineConfig engine_config_;
  SupervisorConfig config_;
  std::function<void(const TelemetrySnapshot&)> snapshot_callback_;
};

}  // namespace mtd
