#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/time_utils.hpp"
#include "dataset/measurement.hpp"
#include "engine/engine.hpp"
#include "events/event_sink.hpp"
#include "events/session_source.hpp"
#include "test_helpers.hpp"

namespace mtd {
namespace {

Network make_network(std::size_t n = 12) {
  if (n >= kNumDeciles) {
    NetworkConfig config;
    config.num_bs = n;
    config.last_decile_rate = 25.0;
    Rng rng(9);
    return Network::build(config, rng);
  }
  std::vector<BaseStation> bss(n);
  for (std::size_t i = 0; i < n; ++i) {
    bss[i].decile = static_cast<std::uint8_t>((i * kNumDeciles) / n);
    bss[i].peak_rate = 5.0 + 3.0 * static_cast<double>(i);
    bss[i].offpeak_scale = 0.25;
  }
  return Network::from_base_stations(std::move(bss));
}

TraceConfig make_trace(std::size_t days = 2, std::uint64_t seed = 33) {
  TraceConfig trace;
  trace.num_days = days;
  trace.seed = seed;
  return trace;
}

/// Sink that counts everything it sees, with an optional per-minute-event
/// delay to simulate a slow consumer.
struct CountingSink final : EventSink {
  std::uint64_t minutes = 0;
  std::uint64_t sessions = 0;
  double volume_mb = 0.0;
  std::chrono::microseconds delay{0};

  void on_event(const StreamEvent& event) override {
    if (const auto* s = std::get_if<SessionEvent>(&event.payload)) {
      ++sessions;
      volume_mb += s->session.volume_mb;
    } else if (event.kind() == EventKind::kMinute) {
      ++minutes;
      if (delay.count() > 0) std::this_thread::sleep_for(delay);
    }
  }
};

// The determinism guarantee: streaming through the engine at any worker
// count, then aggregating the collected stream through the SessionSource
// route, produces a dataset identical to the batch collector — not
// approximately, bit for bit.
TEST(StreamEngine, DeterministicAcrossWorkerCounts) {
  const Network network = make_network();
  const TraceConfig trace = make_trace();
  const MeasurementDataset serial = collect_dataset(network, trace);

  for (std::size_t workers : {1u, 2u, 8u}) {
    EngineConfig config;
    config.num_workers = workers;
    config.queue_capacity = 64;  // small: exercise wraparound + blocking
    StreamEngine engine(network, trace, config);
    MemorySessionSource::Collector collector;
    const EngineResult result = engine.run(collector);
    MemorySessionSource source(std::move(collector).take());
    const MeasurementDataset streamed =
        dataset_from_source(source, network, trace.num_days);

    {
      SCOPED_TRACE(std::to_string(workers) + " workers");
      test::expect_datasets_identical(streamed, serial);
    }

    // Telemetry totals agree with what the sink saw.
    const TelemetrySnapshot& t = result.telemetry;
    EXPECT_EQ(t.of(EventKind::kSession).consumed, serial.total_sessions());
    EXPECT_EQ(t.of(EventKind::kSession).produced, serial.total_sessions());
    EXPECT_EQ(t.of(EventKind::kSession).dropped, 0u);
    EXPECT_EQ(t.of(EventKind::kMinute).dropped, 0u);
    EXPECT_EQ(t.of(EventKind::kMinute).consumed,
              std::uint64_t(network.size()) * kMinutesPerDay *
                  trace.num_days);
    EXPECT_TRUE(result.checkpoint.complete());
  }
}

// A dataset aggregated from a three-worker engine's stream matches
// collect_dataset's bit for bit.
TEST(ParallelDataset, ThreeWorkerEngineMatchesCollectDataset) {
  const Network network = make_network(12);
  const TraceConfig trace = make_trace(1, 44);

  const MeasurementDataset serial = collect_dataset(network, trace);
  EngineConfig config;
  config.num_workers = 3;
  StreamEngine engine(network, trace, config);
  MemorySessionSource::Collector collector;
  const EngineResult result = engine.run(collector);
  EXPECT_TRUE(result.checkpoint.complete());
  MemorySessionSource source(std::move(collector).take());
  const MeasurementDataset parallel =
      dataset_from_source(source, network, trace.num_days);

  test::expect_datasets_identical(parallel, serial);
}

// Every checkpoint is an exact cut at the sink: when on_checkpoint(cp)
// runs, the sink has received every event of the run below
// cp.clock_minute and none at or after it — at any worker count, on an
// hourly and a non-dividing mark grid, across a mid-day resume, and when
// stop_after_days ends the run early.
TEST(StreamEngine, CheckpointIsAConsistentCutAtTheSink) {
  const Network network = make_network(40);
  TraceConfig trace = make_trace(2);
  trace.rate_scale = 0.2;  // the cut, not the volume, is under test

  struct CutSink final : EventSink {
    bool any = false;
    std::uint64_t max_minute = 0;  // largest clock minute delivered
    std::uint64_t minutes = 0;
    std::uint64_t sessions = 0;
    void on_event(const StreamEvent& event) override {
      any = true;
      max_minute = std::max(max_minute, event.key.clock_minute());
      if (event.kind() == EventKind::kMinute) ++minutes;
      if (event.kind() == EventKind::kSession) ++sessions;
    }
  };

  // Runs one leg, checking the cut at every checkpoint it records.
  const auto run_leg = [&](const EngineConfig& config,
                           const EngineCheckpoint* from) {
    StreamEngine engine(network, trace, config);
    CutSink sink;
    std::vector<EngineCheckpoint> checkpoints;
    engine.on_checkpoint([&](const EngineCheckpoint& cp) {
      if (sink.any) {
        EXPECT_LT(sink.max_minute, cp.clock_minute)
            << "event at or past the checkpoint minute";
      }
      // Under kBlock nothing is shed: everything below the cut arrived.
      EXPECT_EQ((from ? from->minutes_emitted : 0) + sink.minutes,
                cp.minutes_emitted);
      EXPECT_EQ((from ? from->sessions_emitted : 0) + sink.sessions,
                cp.sessions_emitted);
      checkpoints.push_back(cp);
    });
    const EngineResult result =
        from ? engine.resume(*from, sink) : engine.run(sink);
    EXPECT_FALSE(checkpoints.empty());
    if (!checkpoints.empty()) {
      EXPECT_EQ(checkpoints.back().clock_minute,
                result.checkpoint.clock_minute);
    }
    return checkpoints;
  };

  for (const std::size_t workers : {1u, 3u, 4u}) {
    for (const std::size_t interval : {60u, 311u}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " interval=" + std::to_string(interval));
      EngineConfig config;
      config.num_workers = workers;
      config.checkpoint_interval_minutes = interval;
      const std::vector<EngineCheckpoint> full = run_leg(config, nullptr);
      ASSERT_FALSE(full.empty());
      EXPECT_TRUE(full.back().complete());

      // Resume from a mid-day checkpoint of the second day.
      const auto mid = std::find_if(
          full.begin(), full.end(), [](const EngineCheckpoint& cp) {
            return cp.mid_day() && cp.next_day() == 1;
          });
      ASSERT_NE(mid, full.end());
      EXPECT_TRUE(run_leg(config, &*mid).back().complete());

      EngineConfig one_day = config;
      one_day.stop_after_days = 1;
      const std::vector<EngineCheckpoint> partial = run_leg(one_day, nullptr);
      ASSERT_FALSE(partial.empty());
      EXPECT_EQ(partial.back().clock_minute, kMinutesPerDay);
    }
  }
}

TEST(StreamEngine, BlockingBackpressureIsLossless) {
  const Network network = make_network(6);
  const TraceConfig trace = make_trace(1);
  const MeasurementDataset serial = collect_dataset(network, trace);

  EngineConfig config;
  config.num_workers = 3;
  config.queue_capacity = 2;  // smallest legal ring: constant backpressure
  config.backpressure = BackpressurePolicy::kBlock;
  StreamEngine engine(network, trace, config);
  CountingSink sink;
  sink.delay = std::chrono::microseconds(1);  // consumer slower than producers
  const EngineResult result = engine.run(sink);

  EXPECT_EQ(sink.sessions, serial.total_sessions());
  EXPECT_EQ(result.telemetry.of(EventKind::kSession).dropped, 0u);
  EXPECT_EQ(result.telemetry.of(EventKind::kMinute).dropped, 0u);
  EXPECT_GT(result.telemetry.producer_stall_seconds, 0.0);
}

TEST(StreamEngine, DropPolicyCountsWhatItSheds) {
  const Network network = make_network(6);
  const TraceConfig trace = make_trace(1);
  const MeasurementDataset serial = collect_dataset(network, trace);

  EngineConfig config;
  config.num_workers = 2;
  config.queue_capacity = 2;
  config.backpressure = BackpressurePolicy::kDropNewest;
  StreamEngine engine(network, trace, config);
  CountingSink sink;
  sink.delay = std::chrono::microseconds(20);  // force overload
  const EngineResult result = engine.run(sink);

  // Production is deterministic regardless of policy; every generated
  // session was either delivered or counted as dropped.
  const EventKindCounters& sessions = result.telemetry.of(EventKind::kSession);
  EXPECT_EQ(sessions.produced, serial.total_sessions());
  EXPECT_EQ(sink.sessions + sessions.dropped, serial.total_sessions());
  EXPECT_GT(sessions.dropped +
                result.telemetry.of(EventKind::kMinute).dropped,
            0u);
}

TEST(StreamEngine, ScaledRealTimeClockPacesTheReplay) {
  const Network network = make_network(4);
  const TraceConfig trace = make_trace(1);

  EngineConfig config;
  config.num_workers = 2;
  // One simulated day in ~0.1 wall seconds: fast enough for a test, slow
  // enough that the run measurably waits on the clock.
  config.time_scale = 86400.0 * 10;
  StreamEngine engine(network, trace, config);
  CountingSink sink;
  const auto t0 = std::chrono::steady_clock::now();
  static_cast<void>(engine.run(sink));
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GE(wall, 0.09);
  EXPECT_EQ(sink.minutes,
            std::uint64_t(network.size()) * kMinutesPerDay);
}

TEST(StreamEngine, PeriodicSnapshotsReachTheCallback) {
  const Network network = make_network(8);
  const TraceConfig trace = make_trace(2);

  EngineConfig config;
  config.num_workers = 2;
  config.telemetry_period_s = 1e-6;  // every snapshot opportunity fires
  StreamEngine engine(network, trace, config);
  std::atomic<std::uint64_t> snapshots{0};
  std::uint64_t last_consumed = 0;
  engine.on_snapshot([&](const TelemetrySnapshot& snap) {
    ++snapshots;
    // Cumulative counters never move backwards across snapshots.
    EXPECT_GE(snap.of(EventKind::kSession).consumed, last_consumed);
    last_consumed = snap.of(EventKind::kSession).consumed;
  });
  CountingSink sink;
  static_cast<void>(engine.run(sink));
  // At least one periodic snapshot plus the final one.
  EXPECT_GE(snapshots.load(), 2u);
  EXPECT_EQ(last_consumed, sink.sessions);
}

TEST(StreamEngine, SnapshotJsonHasStableKeys) {
  const Network network = make_network(4);
  StreamEngine engine(network, make_trace(1));
  CountingSink sink;
  const EngineResult result = engine.run(sink);
  const Json json = result.telemetry.to_json();
  for (const char* key :
       {"wall_s", "clock_minute", "volume_mb", "queue_depth",
        "producer_stall_s", "sessions_per_s", "mbytes_per_s", "events_per_s",
        "kinds"}) {
    EXPECT_TRUE(json.contains(key)) << key;
  }
  // The per-kind object carries one counter block per event kind.
  const Json& kinds = json.at("kinds");
  for (const char* kind : {"minute", "session", "segment", "packet"}) {
    ASSERT_TRUE(kinds.contains(kind)) << kind;
    for (const char* counter :
         {"produced", "consumed", "dropped", "sink_errors", "discarded"}) {
      EXPECT_TRUE(kinds.at(kind).contains(counter)) << kind << counter;
    }
  }
  EXPECT_DOUBLE_EQ(kinds.at("session").at("consumed").as_number(),
                   static_cast<double>(sink.sessions));
}

TEST(StreamEngine, TelemetrySnapshotJsonRoundTrips) {
  const Network network = make_network(4);
  StreamEngine engine(network, make_trace(1));
  CountingSink sink;
  const EngineResult result = engine.run(sink);
  const TelemetrySnapshot& t = result.telemetry;

  const TelemetrySnapshot back = TelemetrySnapshot::from_json(t.to_json());
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    EXPECT_EQ(back.kinds[k].produced, t.kinds[k].produced) << k;
    EXPECT_EQ(back.kinds[k].consumed, t.kinds[k].consumed) << k;
    EXPECT_EQ(back.kinds[k].dropped, t.kinds[k].dropped) << k;
    EXPECT_EQ(back.kinds[k].sink_errors, t.kinds[k].sink_errors) << k;
    EXPECT_EQ(back.kinds[k].discarded, t.kinds[k].discarded) << k;
  }
  EXPECT_EQ(back.clock_minute, t.clock_minute);
  EXPECT_DOUBLE_EQ(back.volume_mb, t.volume_mb);
  EXPECT_DOUBLE_EQ(back.wall_seconds, t.wall_seconds);
  EXPECT_DOUBLE_EQ(back.events_per_second, t.events_per_second);
  EXPECT_TRUE(back.accounted_for());
}

TEST(StreamEngine, WorkerCountIsClampedAndZeroMeansAuto) {
  const Network network = make_network(3);
  EngineConfig config;
  config.num_workers = 64;
  StreamEngine clamped(network, make_trace(1), config);
  EXPECT_EQ(clamped.config().num_workers, 3u);

  config.num_workers = 0;
  StreamEngine automatic(network, make_trace(1), config);
  EXPECT_GE(automatic.config().num_workers, 1u);
  EXPECT_LE(automatic.config().num_workers, 3u);
}

TEST(StreamEngine, RejectsDegenerateQueueCapacity) {
  const Network network = make_network(3);
  EngineConfig config;
  config.queue_capacity = 1;
  EXPECT_THROW(StreamEngine(network, make_trace(1), config), InvalidArgument);
}

TEST(StreamEngine, SinkExceptionPropagatesAndThreadsShutDown) {
  const Network network = make_network(8);
  const TraceConfig trace = make_trace(2);

  struct ThrowingSink final : EventSink {
    std::uint64_t sessions = 0;
    void on_event(const StreamEvent& event) override {
      if (event.kind() == EventKind::kSession && ++sessions == 100) {
        throw std::runtime_error("sink failed");
      }
    }
  };

  EngineConfig config;
  config.num_workers = 4;
  config.queue_capacity = 4;  // make producers likely to be blocked mid-throw
  StreamEngine engine(network, trace, config);
  ThrowingSink sink;
  EXPECT_THROW(engine.run(sink), std::runtime_error);
  // If worker threads were left behind, the test binary would hang or
  // crash at exit; reaching this line with joined threads is the check.
}

/// Seconds of CPU this process has used, over all its threads.
double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// Producers blocked on full rings park instead of spinning. The sink sleeps
// through its first event long enough for every worker to fill its default
// ring and block; over a window inside that sleep the process must use
// well under half a core (three spinning workers read about 3x wall).
TEST(StreamEngine, BlockedProducersDoNotSpin) {
  const Network network = make_network(12);
  const TraceConfig trace = make_trace(1);

  struct SleepingSink final : EventSink {
    bool slept = false;
    double window_s = 0.0;
    double window_cpu_s = 0.0;
    void on_event(const StreamEvent&) override {
      if (slept) return;
      slept = true;
      // Let the workers fill their rings and block, then measure.
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      const double cpu0 = process_cpu_seconds();
      const auto t0 = std::chrono::steady_clock::now();
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
      window_cpu_s = process_cpu_seconds() - cpu0;
      window_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    }
  };

  EngineConfig config;
  config.num_workers = 3;
  StreamEngine engine(network, trace, config);
  SleepingSink sink;
  const EngineResult result = engine.run(sink);
  ASSERT_TRUE(result.checkpoint.complete());
  // Each worker has more events than its ring holds, so all three were
  // blocked through the window.
  EXPECT_GT(result.telemetry.producer_stall_seconds, 3.0 * sink.window_s);
  EXPECT_LT(sink.window_cpu_s, 0.5 * sink.window_s)
      << sink.window_cpu_s << " s of CPU over " << sink.window_s << " s";
}

// A run that stops while its producers are parked on full rings returns:
// the consumer's stop-path drain wakes them, and every produced event is
// accounted for.
TEST(StreamEngine, StopWakesParkedProducers) {
  const Network network = make_network(12);
  const TraceConfig trace = make_trace(1);

  struct StallThenThrowSink final : EventSink {
    std::uint64_t events = 0;
    void on_event(const StreamEvent&) override {
      if (++events == 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      } else if (events == 100) {
        throw std::runtime_error("sink failed");
      }
    }
  };

  EngineConfig config;
  config.num_workers = 3;
  config.queue_capacity = 2;
  StreamEngine engine(network, trace, config);
  TelemetrySnapshot last;
  engine.on_snapshot([&](const TelemetrySnapshot& snap) { last = snap; });
  StallThenThrowSink sink;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(static_cast<void>(engine.run(sink)), std::runtime_error);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count(),
            10.0);
  EXPECT_GT(last.producer_stall_seconds, 0.0);  // they were parked
  EXPECT_GT(last.of(EventKind::kSession).discarded, 0u);
  EXPECT_TRUE(last.sessions_accounted_for()) << last.to_json().dump(2);
}

// Time inside the checkpoint hook is not a stall. With 2-slot rings the
// producers park within a few batches of the hook, so a hook that runs
// three times the watchdog deadline freezes every progress counter.
TEST(StreamEngine, WatchdogDoesNotCountTimeInsideTheCheckpointHook) {
  const Network network = make_network(6);
  const TraceConfig trace = make_trace(1);

  EngineConfig config;
  config.num_workers = 2;
  config.queue_capacity = 2;
  config.watchdog_timeout_s = 0.25;
  config.checkpoint_interval_minutes = 720;
  StreamEngine engine(network, trace, config);
  std::size_t hooks = 0;
  engine.on_checkpoint([&](const EngineCheckpoint&) {
    ++hooks;
    std::this_thread::sleep_for(std::chrono::duration<double>(
        3.0 * config.watchdog_timeout_s));
  });
  CountingSink sink;
  const EngineResult result = engine.run(sink);
  EXPECT_TRUE(result.checkpoint.complete());
  EXPECT_EQ(hooks, 2u);
}

}  // namespace
}  // namespace mtd
