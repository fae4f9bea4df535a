// Checkpoint-based auto-recovery around StreamEngine, into a trace store.
//
// The Supervisor runs a replay into an existing trace store through one
// bounded restart loop: when an attempt fails with a retryable error
// (worker fault, watchdog-detected stall, transient store I/O), it starts
// a fresh engine from the last committed checkpoint — a day boundary, or
// any minute-interval mark when the engine runs with
// checkpoint_interval_minutes — with exponential backoff between attempts
// (jitter drawn from an RNG seeded by the trace seed, so failure schedules
// replay reproducibly). Because every (BS, day) RNG stream is independent
// and a mid-day resume replays its day's prefix without emitting it, the
// recovered store is bit-identical to one an unfailed run wrote.
//
// The restart point lives in one place, the store manifest. Every attempt
// reopens the store from disk, as a restarted process would, and
// run_engine_into_store resumes from the checkpoint the manifest carries;
// data and checkpoint commit together, so a failed attempt's uncommitted
// tail is simply dropped with its writer. Memory is the writer's pending
// interval (see store_runner.hpp).
//
// Exactly-once delivery into any other EventSink goes through the store:
// supervise into it, then TraceStore::replay(sink). The replay is in key
// order — (BS, day, minute, seq) — so each BS's events arrive in
// generation order.
//
// The product of a supervised run is a RunReport: every attempt with its
// minute range, failure cause, retryability, final telemetry and the
// backoff applied — the operational record a replay of the paper's 45-day
// horizon needs when transient faults are a matter of when, not if.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/store_runner.hpp"

namespace mtd {

struct SupervisorConfig {
  /// Restarts after the first attempt; attempts = max_restarts + 1.
  std::size_t max_restarts = 3;
  /// Backoff before restart k is initial * 2^(k-1) * (1 + 0.25 U), with U
  /// uniform in [0, 1) from an RNG seeded by the trace seed: two supervised
  /// runs with the same trace seed and failure schedule apply identical
  /// backoff sequences (asserted in tests), which keeps chaos runs
  /// reproducible end to end.
  double backoff_initial_ms = 25.0;
};

/// One engine attempt inside a supervised run.
struct SupervisorAttempt {
  std::size_t attempt = 0;      ///< 1-based
  /// Absolute minute the attempt started/resumed from, and the
  /// clock_minute of the last checkpoint it committed (its start minute
  /// when it committed none). The next attempt starts at this attempt's
  /// reached_minute. RunReport::to_json also reports them as days
  /// (minute / 1440).
  std::uint64_t start_minute = 0;
  std::uint64_t reached_minute = 0;
  std::string error;            ///< empty when the attempt succeeded
  bool retryable = false;
  double backoff_ms = 0.0;      ///< wait applied before the next attempt
  /// The attempt's final telemetry snapshot; the engine delivers one on
  /// the failure path too, so the conservation identity is checkable for
  /// every attempt (all zero when the attempt failed before its engine
  /// ran, e.g. while reopening the store).
  TelemetrySnapshot telemetry;
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
  /// `engine_config.fault` is honored by every attempt's engine and store
  /// writer.
  Supervisor(const Network& network, const TraceConfig& trace,
             EngineConfig engine_config = {}, SupervisorConfig config = {});

  /// Supervised equivalent of run_engine_into_store on the existing store
  /// at `path`: each attempt reopens it with TraceStoreWriter::append and
  /// resumes from the store's own checkpoint (day 0 on a store that has
  /// none; nothing to do on a complete one). A successful attempt closes
  /// its writer; a failed one drops it, so its uncommitted tail never
  /// reaches the store. Never throws for retryable failures while restart
  /// budget remains; when the budget is exhausted or the failure is not
  /// retryable, the report records every attempt and `succeeded` is false.
  [[nodiscard]] RunReport run_into_store(const std::string& path,
                                         const StoreRunPolicy& policy = {});

  /// Telemetry passthrough, re-registered on every attempt's engine.
  void on_snapshot(std::function<void(const TelemetrySnapshot&)> callback) {
    snapshot_callback_ = std::move(callback);
  }

  [[nodiscard]] const SupervisorConfig& config() const noexcept {
    return config_;
  }

 private:
  const Network* network_;
  TraceConfig trace_;
  EngineConfig engine_config_;
  SupervisorConfig config_;
  std::function<void(const TelemetrySnapshot&)> snapshot_callback_;
};

}  // namespace mtd
