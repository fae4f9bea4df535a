#include "engine/supervisor.hpp"

#include <chrono>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/time_utils.hpp"

namespace mtd {

namespace {

/// Backoff growth per restart, and the jitter's share of each wait.
constexpr double kBackoffMultiplier = 2.0;
constexpr double kBackoffJitter = 0.25;

}  // namespace

Json RunReport::to_json() const {
  JsonObject obj;
  obj.emplace("succeeded", succeeded);
  obj.emplace("attempts", attempts.size());
  obj.emplace("restarts", restarts());
  JsonArray arr;
  for (const SupervisorAttempt& a : attempts) {
    JsonObject at;
    at.emplace("attempt", a.attempt);
    at.emplace("start_day",
               static_cast<std::size_t>(a.start_minute / kMinutesPerDay));
    at.emplace("reached_day",
               static_cast<std::size_t>(a.reached_minute / kMinutesPerDay));
    at.emplace("start_minute", static_cast<double>(a.start_minute));
    at.emplace("reached_minute", static_cast<double>(a.reached_minute));
    at.emplace("error", a.error);
    at.emplace("retryable", a.retryable);
    at.emplace("backoff_ms", a.backoff_ms);
    at.emplace("conservation_ok", a.telemetry.accounted_for());
    arr.emplace_back(std::move(at));
  }
  obj.emplace("attempt_log", Json(std::move(arr)));
  if (succeeded) {
    obj.emplace("telemetry", result.telemetry.to_json());
    obj.emplace("next_day", result.checkpoint.next_day());
    obj.emplace("clock_minute",
                static_cast<double>(result.checkpoint.clock_minute));
    obj.emplace("complete", result.checkpoint.complete());
  }
  return Json(std::move(obj));
}

Supervisor::Supervisor(const Network& network, const TraceConfig& trace,
                       EngineConfig engine_config, SupervisorConfig config)
    : network_(&network),
      trace_(trace),
      engine_config_(std::move(engine_config)),
      config_(config) {}

RunReport Supervisor::run_into_store(const std::string& path,
                                     const StoreRunPolicy& policy) {
  RunReport report;
  Rng backoff_rng(trace_.seed ^ 0x73757076ULL /* "supv" */);
  double backoff_ms = config_.backoff_initial_ms;
  const std::size_t max_attempts = config_.max_restarts + 1;

  for (std::size_t attempt = 1; attempt <= max_attempts; ++attempt) {
    SupervisorAttempt record;
    record.attempt = attempt;

    StreamEngine engine(*network_, trace_, engine_config_);
    engine.on_snapshot([&](const TelemetrySnapshot& snapshot) {
      record.telemetry = snapshot;
      if (snapshot_callback_) snapshot_callback_(snapshot);
    });

    try {
      // A fresh writer per attempt, opened as a restarted process would:
      // state crosses attempts only through the store files.
      auto writer = store::TraceStoreWriter::append(path, engine_config_.fault);
      const auto committed_minute = [&writer]() -> std::uint64_t {
        const std::optional<EngineCheckpoint> cp =
            load_store_checkpoint(writer.manifest());
        return cp ? cp->clock_minute : 0;
      };
      record.start_minute = committed_minute();
      record.reached_minute = record.start_minute;
      EngineResult result;
      try {
        result = run_engine_into_store(engine, writer, policy);
        writer.close();
      } catch (...) {
        // The writer is dropped, not closed: closing would commit the
        // uncommitted tail under the old checkpoint. The manifest holds
        // exactly what the store committed.
        record.reached_minute = committed_minute();
        throw;
      }
      record.reached_minute = result.checkpoint.clock_minute;
      report.result = std::move(result);
      report.succeeded = true;
      report.attempts.push_back(std::move(record));
      return report;
    } catch (const Error& e) {
      record.error = e.what();
      record.retryable = e.retryable();
    } catch (const std::exception& e) {
      // Foreign exceptions (user sink code, injected kThrow faults) carry
      // no retryability contract: never restart on them.
      record.error = e.what();
      record.retryable = false;
    }

    const bool retry = record.retryable && attempt < max_attempts;
    if (retry) {
      record.backoff_ms =
          backoff_ms * (1.0 + kBackoffJitter * backoff_rng.uniform());
    }
    report.attempts.push_back(std::move(record));
    if (!retry) return report;
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        report.attempts.back().backoff_ms));
    backoff_ms *= kBackoffMultiplier;
  }
  return report;
}

}  // namespace mtd
