// Fault-injection matrix for the engine's failure semantics: every armed
// failure point must end in clean, accounted-for shutdown (no deadlock, no
// lost events) and — where the error is retryable — in supervised recovery
// into a trace store that is bit-identical to an unfailed run.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/fnv.hpp"
#include "common/time_utils.hpp"
#include "dataset/measurement.hpp"
#include "common/fault.hpp"
#include "engine/supervisor.hpp"
#include "events/event_codec.hpp"
#include "events/event_sink.hpp"
#include "events/session_source.hpp"
#include "store/store_session_source.hpp"
#include "store/trace_store.hpp"
#include "test_helpers.hpp"
#include "test_store_helpers.hpp"

namespace mtd {
namespace {

using test::PerBsRecorder;
using test::ScratchStore;
using test::expect_identical_streams;

Network make_network(std::size_t n = 10) {
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

TraceConfig make_trace(std::size_t days = 2, std::uint64_t seed = 55) {
  TraceConfig trace;
  trace.num_days = days;
  trace.seed = seed;
  return trace;
}

struct CountingSink final : EventSink {
  std::uint64_t minutes = 0;
  std::uint64_t sessions = 0;
  void on_event(const StreamEvent& event) override {
    if (event.kind() == EventKind::kMinute) ++minutes;
    if (event.kind() == EventKind::kSession) ++sessions;
  }
};

/// Per-kind event counts plus one FNV-1a digest per BS over the wire
/// encoding of that BS's events in delivery order. How BSs interleave
/// depends on thread timing; each BS's own subsequence does not.
struct DigestSink final : EventSink {
  std::array<std::uint64_t, kNumEventKinds> counts{};
  std::map<std::uint32_t, std::uint64_t> per_bs;

  void on_event(const StreamEvent& event) override {
    ++counts[static_cast<std::size_t>(event.kind())];
    char buf[kMaxEventPayloadBytes];
    const std::size_t len = encode_event_payload(event, buf);
    std::uint64_t& hash =
        per_bs.try_emplace(event.key.bs, kFnvOffsetBasis).first->second;
    hash = fnv1a64(std::string_view(buf, len), hash);
  }
};

/// Sessions in `sink` that arrived before `minute_of_day` of their day.
std::uint64_t sessions_before(const PerBsRecorder& sink,
                              std::size_t minute_of_day) {
  std::uint64_t n = 0;
  for (const std::vector<Session>& sessions : sink.per_bs) {
    for (const Session& session : sessions) {
      if (session.minute_of_day < minute_of_day) ++n;
    }
  }
  return n;
}

TEST(EngineFault, InjectorHonorsAfterTimesAndCounts) {
  FaultInjector fault;
  FaultSpec spec;
  spec.action = FaultAction::kError;
  spec.after = 2;   // hits 0 and 1 pass
  spec.times = 2;   // hits 2 and 3 fire, later hits pass again
  fault.arm("p", spec);

  fault.fire("p");
  fault.fire("p");
  EXPECT_THROW(fault.fire("p"), InjectedFault);
  EXPECT_THROW(fault.fire("p"), InjectedFault);
  fault.fire("p");  // budget spent: armed but inert
  EXPECT_EQ(fault.hits("p"), 5u);
  EXPECT_EQ(fault.fired("p"), 2u);

  // Unarmed points never fire, and disarm works.
  fault.fire("unarmed");
  fault.disarm("p");
  fault.fire("p");
  EXPECT_EQ(fault.hits("p"), 0u);
}

TEST(EngineFault, InjectorActionsAreTypedCorrectly) {
  FaultInjector fault;
  fault.arm("err", FaultSpec{});
  try {
    fault.fire("err");
    FAIL() << "did not throw";
  } catch (const EngineError& e) {
    EXPECT_TRUE(e.retryable());
    EXPECT_NE(std::string(e.what()).find("err"), std::string::npos);
  }

  FaultSpec foreign;
  foreign.action = FaultAction::kThrow;
  fault.arm("for", foreign);
  EXPECT_THROW(fault.fire("for"), std::runtime_error);

  FaultSpec stall;
  stall.action = FaultAction::kStall;
  stall.stall_ms = 30.0;
  fault.arm("st", stall);
  const auto t0 = std::chrono::steady_clock::now();
  fault.fire("st");
  EXPECT_GE(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count(),
            0.025);
}

TEST(EngineFault, InjectorProbabilityIsSeededAndDeterministic) {
  auto count_fired = [](std::uint64_t seed) {
    FaultInjector fault(seed);
    FaultSpec spec;
    spec.probability = 0.3;
    spec.times = FaultSpec::kUnlimited;
    fault.arm("p", spec);
    std::uint64_t fired = 0;
    for (int i = 0; i < 1000; ++i) {
      try {
        fault.fire("p");
      } catch (const InjectedFault&) {
        ++fired;
      }
    }
    return fired;
  };
  const std::uint64_t a = count_fired(7);
  EXPECT_EQ(a, count_fired(7));        // same seed, same schedule
  EXPECT_NE(a, count_fired(8));        // different seed, different schedule
  EXPECT_GT(a, 200u);                  // ~300 expected
  EXPECT_LT(a, 400u);
}

// Sink throws under kBlock while producers are wedged on full rings: the
// engine must propagate the exception, join every producer (a leak would
// hang the test, caught by the ctest timeout), and account for every
// produced session.
TEST(EngineFault, SinkThrowUnderBlockJoinsAllProducersWithExactAccounting) {
  const Network network = make_network(8);
  const TraceConfig trace = make_trace(2);
  FaultInjector fault;
  FaultSpec spec;
  spec.action = FaultAction::kThrow;
  spec.after = 500;  // fail mid-stream, with rings full of backlog
  fault.arm("sink.session", spec);

  EngineConfig config;
  config.num_workers = 4;
  config.queue_capacity = 4;  // producers blocked mid-throw
  config.fault = &fault;
  StreamEngine engine(network, trace, config);
  TelemetrySnapshot last;
  engine.on_snapshot([&](const TelemetrySnapshot& snap) { last = snap; });
  CountingSink sink;
  EXPECT_THROW(engine.run(sink), std::runtime_error);
  EXPECT_EQ(fault.fired("sink.session"), 1u);
  // The final diagnostic snapshot closes the books: every produced session
  // was delivered, shed, rejected, or discarded while aborting.
  EXPECT_GT(last.of(EventKind::kSession).produced, 0u);
  EXPECT_GT(last.of(EventKind::kSession).discarded, 0u);
  EXPECT_TRUE(last.sessions_accounted_for())
      << last.to_json().dump(2);
}

TEST(EngineFault, WorkerThrowStopsTheRunWithARetryableError) {
  const Network network = make_network(8);
  const TraceConfig trace = make_trace(3);
  FaultInjector fault;
  FaultSpec spec;
  spec.after = 2;  // both workers pass day 0, first day-1 entry fires
  fault.arm("worker.day", spec);

  EngineConfig config;
  config.num_workers = 2;
  config.queue_capacity = 64;
  config.fault = &fault;
  StreamEngine engine(network, trace, config);
  TelemetrySnapshot last;
  engine.on_snapshot([&](const TelemetrySnapshot& snap) { last = snap; });
  CountingSink sink;
  try {
    static_cast<void>(engine.run(sink));
    FAIL() << "worker fault did not propagate";
  } catch (const EngineError& e) {
    EXPECT_TRUE(e.retryable());
    EXPECT_NE(std::string(e.what()).find("worker.day"), std::string::npos);
  }
  EXPECT_TRUE(last.sessions_accounted_for()) << last.to_json().dump(2);
}

// kDropNewest with an intermittently failing sink under kDegrade: the run
// completes, and produced == consumed + dropped + sink_errors exactly.
TEST(EngineFault, DegradePolicyKeepsDropAccountingExact) {
  const Network network = make_network(6);
  const TraceConfig trace = make_trace(1);
  const MeasurementDataset serial = collect_dataset(network, trace);
  FaultInjector fault(1234);
  FaultSpec spec;
  spec.probability = 0.2;
  spec.times = FaultSpec::kUnlimited;
  fault.arm("sink.session", spec);
  fault.arm("sink.minute", spec);

  EngineConfig config;
  config.num_workers = 2;
  config.queue_capacity = 16;
  config.backpressure = BackpressurePolicy::kDropNewest;
  config.sink_error_policy = SinkErrorPolicy::kDegrade;
  config.fault = &fault;
  StreamEngine engine(network, trace, config);
  CountingSink sink;
  const EngineResult result = engine.run(sink);
  const TelemetrySnapshot& t = result.telemetry;

  const EventKindCounters& sessions = t.of(EventKind::kSession);
  const EventKindCounters& minutes = t.of(EventKind::kMinute);

  // Production is deterministic regardless of failures downstream.
  EXPECT_EQ(sessions.produced, serial.total_sessions());
  EXPECT_GT(sessions.sink_errors, 0u);
  EXPECT_EQ(sessions.discarded, 0u);  // no abort: nothing discarded
  EXPECT_EQ(sessions.consumed + sessions.dropped + sessions.sink_errors,
            sessions.produced)
      << t.to_json().dump(2);
  EXPECT_TRUE(t.sessions_accounted_for());
  // The sink saw exactly the consumed events.
  EXPECT_EQ(sink.sessions, sessions.consumed);
  EXPECT_EQ(sink.minutes, minutes.consumed);
  EXPECT_GT(minutes.sink_errors, 0u);
}

TEST(EngineFault, WatchdogDetectsAStalledConsumer) {
  const Network network = make_network(6);
  const TraceConfig trace = make_trace(1);
  FaultInjector fault;
  FaultSpec stall;
  stall.action = FaultAction::kStall;
  stall.stall_ms = 1500.0;
  fault.arm("consumer.loop", stall);

  EngineConfig config;
  config.num_workers = 2;
  config.queue_capacity = 8;  // rings fill fast, progress freezes fast
  config.watchdog_timeout_s = 0.25;
  config.fault = &fault;
  StreamEngine engine(network, trace, config);
  CountingSink sink;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    static_cast<void>(engine.run(sink));
    FAIL() << "watchdog did not fire";
  } catch (const EngineError& e) {
    EXPECT_TRUE(e.retryable());
    EXPECT_NE(std::string(e.what()).find("watchdog"), std::string::npos);
  }
  // Terminated promptly once the stall ended — not a hang.
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count(),
            10.0);
}

// The Supervisor streams only into a trace store, and each test below
// runs it into a fresh one (test::ScratchStore). Recovered streams are read
// back with TraceStore::replay, which delivers in (BS, day, minute, seq)
// order; PerBsRecorder and DigestSink compare per BS, so that order
// matches a clean engine run's however its BSs interleaved.

// The headline recovery guarantee: a supervised run that loses a worker
// mid-replay restarts from the last good checkpoint and commits a stream
// bit-identical to a run that never failed.
TEST(Supervisor, RecoveryFromWorkerFaultIsBitIdentical) {
  const Network network = make_network(10);
  const TraceConfig trace = make_trace(3);

  PerBsRecorder clean(network.size());
  StreamEngine reference(network, trace);
  const EngineResult clean_result = reference.run(clean);

  FaultInjector fault;
  FaultSpec spec;
  spec.after = 2;  // fail at the first day-1 entry
  fault.arm("worker.day", spec);
  EngineConfig config;
  config.num_workers = 2;
  config.queue_capacity = 64;
  config.fault = &fault;
  SupervisorConfig sup;
  sup.max_restarts = 2;
  sup.backoff_initial_ms = 1.0;
  Supervisor supervisor(network, trace, config, sup);
  const ScratchStore store;
  const RunReport report = supervisor.run_into_store(store.path());

  ASSERT_TRUE(report.succeeded) << report.to_json().dump(2);
  ASSERT_EQ(report.attempts.size(), 2u);
  EXPECT_TRUE(report.attempts[0].retryable);
  EXPECT_NE(report.attempts[0].error.find("worker.day"), std::string::npos);
  EXPECT_TRUE(report.attempts[1].error.empty());
  // Backoff is recorded on the failed attempt; the successful retry has none.
  EXPECT_GE(report.attempts[0].backoff_ms, sup.backoff_initial_ms);
  EXPECT_EQ(report.attempts[1].backoff_ms, 0.0);
  EXPECT_TRUE(report.result.checkpoint.complete());

  PerBsRecorder recovered(network.size());
  (void)store.replay(recovered);
  expect_identical_streams(recovered, clean);
  EXPECT_EQ(recovered.minutes, clean.minutes);
  EXPECT_EQ(report.result.checkpoint.sessions_emitted,
            clean_result.checkpoint.sessions_emitted);
  EXPECT_DOUBLE_EQ(report.result.checkpoint.volume_mb,
                   clean_result.checkpoint.volume_mb);
}

TEST(Supervisor, RecoveryFromWatchdogStallIsBitIdentical) {
  const Network network = make_network(6);
  const TraceConfig trace = make_trace(2);

  PerBsRecorder clean(network.size());
  StreamEngine reference(network, trace);
  static_cast<void>(reference.run(clean));

  FaultInjector fault;
  FaultSpec stall;
  stall.action = FaultAction::kStall;
  stall.stall_ms = 1200.0;
  fault.arm("consumer.loop", stall);
  EngineConfig config;
  config.num_workers = 2;
  config.queue_capacity = 8;
  config.watchdog_timeout_s = 0.25;
  // Day-boundary checkpoints only: a whole day's store commit can outlast
  // the deadline under ThreadSanitizer while the producers sit parked, and
  // the watchdog must not count that time inside the checkpoint hook.
  config.fault = &fault;
  SupervisorConfig sup;
  sup.max_restarts = 1;
  sup.backoff_initial_ms = 1.0;
  Supervisor supervisor(network, trace, config, sup);
  const ScratchStore store;
  const RunReport report = supervisor.run_into_store(store.path());

  ASSERT_TRUE(report.succeeded) << report.to_json().dump(2);
  ASSERT_EQ(report.attempts.size(), 2u);
  EXPECT_NE(report.attempts[0].error.find("watchdog"), std::string::npos);
  PerBsRecorder recovered(network.size());
  (void)store.replay(recovered);
  expect_identical_streams(recovered, clean);
  EXPECT_EQ(recovered.minutes, clean.minutes);
}

TEST(Supervisor, ForeignExceptionsAreNotRetried) {
  const Network network = make_network(6);
  const TraceConfig trace = make_trace(2);
  FaultInjector fault;
  FaultSpec spec;
  spec.action = FaultAction::kThrow;  // foreign exception: no contract
  fault.arm("sink.session", spec);
  EngineConfig config;
  config.fault = &fault;
  SupervisorConfig sup;
  sup.max_restarts = 3;
  Supervisor supervisor(network, trace, config, sup);
  const ScratchStore store;
  const RunReport report = supervisor.run_into_store(store.path());

  EXPECT_FALSE(report.succeeded);
  ASSERT_EQ(report.attempts.size(), 1u);  // never restarted
  EXPECT_FALSE(report.attempts[0].retryable);
  EXPECT_NE(report.attempts[0].error.find("injected exception"),
            std::string::npos);
}

// A retryable error does not hide a non-retryable one that follows it in
// the same attempt. The consumer stalls before its first sweep; the
// watchdog signals its retryable stall error meanwhile; then the sweep
// delivers the first session, whose sink throws a foreign exception. The
// attempt must report the foreign exception and must not be retried.
TEST(Supervisor, NonRetryableErrorOutranksAnEarlierRetryableOne) {
  const Network network = make_network(6);
  const TraceConfig trace = make_trace(1);
  FaultInjector fault;
  fault.arm("consumer.loop",
            FaultSpec{.action = FaultAction::kStall, .stall_ms = 1200.0});
  fault.arm("sink.session", FaultSpec{.action = FaultAction::kThrow});
  EngineConfig config;
  config.num_workers = 1;
  config.queue_capacity = 8;
  config.watchdog_timeout_s = 0.25;
  config.fault = &fault;
  SupervisorConfig sup;
  sup.max_restarts = 2;
  sup.backoff_initial_ms = 1.0;
  Supervisor supervisor(network, trace, config, sup);
  const ScratchStore store;
  const RunReport report = supervisor.run_into_store(store.path());

  EXPECT_FALSE(report.succeeded) << report.to_json().dump(2);
  ASSERT_EQ(report.attempts.size(), 1u) << report.to_json().dump(2);
  EXPECT_FALSE(report.attempts[0].retryable);
  EXPECT_EQ(report.attempts[0].error, "injected exception at sink.session");
  EXPECT_EQ(fault.fired("consumer.loop"), 1u);
}

TEST(Supervisor, GivesUpAfterTheRestartBudget) {
  const Network network = make_network(6);
  const TraceConfig trace = make_trace(2);
  FaultInjector fault;
  FaultSpec spec;
  spec.times = FaultSpec::kUnlimited;  // permanently broken worker
  fault.arm("worker.day", spec);
  EngineConfig config;
  config.fault = &fault;
  SupervisorConfig sup;
  sup.max_restarts = 2;
  sup.backoff_initial_ms = 1.0;
  Supervisor supervisor(network, trace, config, sup);
  const ScratchStore store;
  const RunReport report = supervisor.run_into_store(store.path());

  EXPECT_FALSE(report.succeeded);
  ASSERT_EQ(report.attempts.size(), 3u);  // 1 run + 2 restarts
  EXPECT_EQ(report.restarts(), 2u);
  for (const SupervisorAttempt& a : report.attempts) {
    EXPECT_TRUE(a.retryable);
    EXPECT_FALSE(a.error.empty());
  }
  // Deterministic exponential backoff: the second wait is at least the
  // base-doubled first wait's undithered floor.
  EXPECT_GE(report.attempts[0].backoff_ms, 1.0);
  EXPECT_GE(report.attempts[1].backoff_ms, 2.0);
  EXPECT_EQ(report.attempts[2].backoff_ms, 0.0);  // no retry after the last
  EXPECT_EQ(store.committed_events(), 0u);  // nothing ever committed
}

// Backoff jitter comes from an RNG seeded by the trace seed: the same seed
// and failure schedule replay the exact same wait sequence, and another
// trace seed draws another one.
TEST(Supervisor, BackoffJitterIsSeededAndReproducible) {
  const Network network = make_network(6);

  const auto backoffs = [&](std::uint64_t trace_seed) {
    FaultInjector fault;
    FaultSpec spec;
    spec.times = FaultSpec::kUnlimited;  // every attempt fails the same way
    fault.arm("worker.day", spec);
    EngineConfig config;
    config.fault = &fault;
    SupervisorConfig sup;
    sup.max_restarts = 3;
    sup.backoff_initial_ms = 1.0;
    Supervisor supervisor(network, make_trace(2, trace_seed), config, sup);
    const ScratchStore store;
    const RunReport report = supervisor.run_into_store(store.path());
    EXPECT_FALSE(report.succeeded);
    EXPECT_EQ(report.attempts.size(), 4u);
    std::vector<double> waits;
    for (const SupervisorAttempt& a : report.attempts) {
      waits.push_back(a.backoff_ms);
    }
    return waits;
  };

  const std::vector<double> seeded = backoffs(1234);
  EXPECT_EQ(seeded, backoffs(1234));
  EXPECT_NE(seeded, backoffs(99));
}

// Minute-granularity recovery: with checkpoint_interval_minutes set, a
// sink fault deep inside day 0 resumes from the last mid-day mark — not
// from the day boundary — and the recovered stream is still bit-identical.
//
// The fault must land after a mid-day mark has committed, and the code,
// not thread timing, guarantees that: with one worker, its FIFO ring
// carries every session before the mark ahead of the mark, so the consumer
// commits the mark before it delivers the next session — the one the
// consumer-side fault is armed on.
TEST(Supervisor, MidDayRecoveryResumesFromTheMinuteMark) {
  const Network network = make_network(10);
  const TraceConfig trace = make_trace(2);

  PerBsRecorder clean(network.size());
  StreamEngine reference(network, trace);
  static_cast<void>(reference.run(clean));

  // Probe day 0's session count so the fault can be pinned deep inside the
  // day: on the first session at or after the fifth 173-minute mark
  // (mid-afternoon, with arrivals still to come before the day ends).
  PerBsRecorder day0(network.size());
  {
    EngineConfig probe_config;
    probe_config.stop_after_days = 1;
    StreamEngine probe(network, trace, probe_config);
    static_cast<void>(probe.run(day0));
  }
  const std::uint64_t day0_sessions = sessions_before(day0, kMinutesPerDay);
  ASSERT_GT(day0_sessions, 8u);
  const std::uint64_t before_mark = sessions_before(day0, 5 * 173);
  ASSERT_GT(before_mark, 0u);
  ASSERT_LT(before_mark, day0_sessions);

  FaultInjector fault;
  FaultSpec spec;
  spec.after = before_mark;
  fault.arm("sink.session", spec);
  EngineConfig config;
  config.num_workers = 1;
  config.checkpoint_interval_minutes = 173;  // does not divide 1440
  config.fault = &fault;
  SupervisorConfig sup;
  sup.max_restarts = 1;
  sup.backoff_initial_ms = 1.0;
  Supervisor supervisor(network, trace, config, sup);
  const ScratchStore store;
  const RunReport report = supervisor.run_into_store(store.path());

  ASSERT_TRUE(report.succeeded) << report.to_json().dump(2);
  ASSERT_EQ(report.attempts.size(), 2u);
  EXPECT_NE(report.attempts[0].error.find("sink.session"),
            std::string::npos);
  // The restart picked up at a committed minute mark strictly inside day 0.
  EXPECT_EQ(report.attempts[0].reached_minute / kMinutesPerDay, 0u);
  EXPECT_EQ(report.attempts[1].start_minute / kMinutesPerDay, 0u);
  const std::uint64_t resumed_at = report.attempts[1].start_minute;
  EXPECT_GT(resumed_at, 0u);
  EXPECT_NE(resumed_at % kMinutesPerDay, 0u);
  EXPECT_EQ(resumed_at % 173, 0u);
  EXPECT_EQ(report.attempts[0].reached_minute, resumed_at);

  PerBsRecorder recovered(network.size());
  (void)store.replay(recovered);
  expect_identical_streams(recovered, clean);
  EXPECT_EQ(recovered.minutes, clean.minutes);
}

// A supervised store run carries every event kind: with segment and
// packet expansion on and a sink fault deep inside day 0, the recovered
// store has the per-kind counts and per-BS wire digests of an
// unsupervised clean run. One worker orders the fault after a committed
// mid-day mark, as above.
TEST(Supervisor, MidDayRecoveryCarriesSegmentAndPacketEvents) {
  const Network network = make_network(6);
  const TraceConfig trace = make_trace(2);
  EngineConfig config;
  config.num_workers = 1;
  config.checkpoint_interval_minutes = 173;  // does not divide 1440
  config.event_kinds = EventKindMask::session_replay()
                           .set(EventKind::kSegment)
                           .set(EventKind::kPacket);
  config.packet.max_packets = 16;  // bound the heavy-tail expansion

  DigestSink clean;
  StreamEngine reference(network, trace, config);
  const EngineResult clean_result = reference.run(clean);
  EXPECT_GT(clean.counts[static_cast<std::size_t>(EventKind::kSegment)], 0u);
  EXPECT_GT(clean.counts[static_cast<std::size_t>(EventKind::kPacket)], 0u);

  PerBsRecorder day0(network.size());
  {
    EngineConfig probe_config = config;
    probe_config.stop_after_days = 1;
    StreamEngine probe(network, trace, probe_config);
    static_cast<void>(probe.run(day0));
  }
  const std::uint64_t day0_sessions = sessions_before(day0, kMinutesPerDay);
  ASSERT_GT(day0_sessions, 8u);
  const std::uint64_t before_mark = sessions_before(day0, 5 * 173);
  ASSERT_GT(before_mark, 0u);
  ASSERT_LT(before_mark, day0_sessions);

  FaultInjector fault;
  FaultSpec spec;
  spec.after = before_mark;
  fault.arm("sink.session", spec);
  config.fault = &fault;
  SupervisorConfig sup;
  sup.max_restarts = 1;
  sup.backoff_initial_ms = 1.0;
  Supervisor supervisor(network, trace, config, sup);
  const ScratchStore store;
  const RunReport report = supervisor.run_into_store(store.path());

  ASSERT_TRUE(report.succeeded) << report.to_json().dump(2);
  ASSERT_EQ(report.attempts.size(), 2u);
  EXPECT_NE(report.attempts[0].error.find("sink.session"),
            std::string::npos);
  EXPECT_NE(report.attempts[1].start_minute % kMinutesPerDay, 0u);

  DigestSink recovered;
  (void)store.replay(recovered);
  EXPECT_EQ(recovered.counts, clean.counts);
  EXPECT_EQ(recovered.per_bs, clean.per_bs);
  EXPECT_EQ(report.result.checkpoint.segments_emitted,
            clean_result.checkpoint.segments_emitted);
  EXPECT_EQ(report.result.checkpoint.packets_emitted,
            clean_result.checkpoint.packets_emitted);
}

TEST(Supervisor, CleanRunReportsOneAttempt) {
  const Network network = make_network(6);
  const TraceConfig trace = make_trace(2);
  const MeasurementDataset serial = collect_dataset(network, trace);

  Supervisor supervisor(network, trace);
  const ScratchStore scratch;
  const RunReport report = supervisor.run_into_store(scratch.path());
  store::TraceStore store(scratch.path());
  store::StoreSessionSource source(store);
  const MeasurementDataset streamed =
      dataset_from_source(source, network, trace.num_days);

  ASSERT_TRUE(report.succeeded);
  EXPECT_EQ(report.attempts.size(), 1u);
  EXPECT_EQ(report.restarts(), 0u);
  test::expect_datasets_identical(streamed, serial);
  const Json json = report.to_json();
  EXPECT_TRUE(json.at("succeeded").as_bool());
  EXPECT_EQ(json.at("attempt_log").as_array().size(), 1u);
}

}  // namespace
}  // namespace mtd
