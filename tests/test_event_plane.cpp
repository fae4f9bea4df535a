// End-to-end tests of the typed event data plane: CSV parity of the
// batched, sharded engine with the batch generator for every worker count
// and batch size, the per-kind conservation identity on clean runs, drop
// runs and fault-injected aborts, expansion determinism (segments/packets
// never perturb session content), and per-kind checkpoint/resume totals.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/time_utils.hpp"
#include "dataset/measurement.hpp"
#include "engine/engine.hpp"
#include "common/fault.hpp"
#include "events/event_sink.hpp"

namespace mtd {
namespace {

Network make_network(std::size_t n = 10) {
  NetworkConfig config;
  config.num_bs = n;
  config.last_decile_rate = 25.0;
  Rng rng(9);
  return Network::build(config, rng);
}

TraceConfig make_trace(std::size_t days = 2, std::uint64_t seed = 77) {
  TraceConfig trace;
  trace.num_days = days;
  trace.seed = seed;
  return trace;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Counts per kind and records the full event stream key order per BS.
struct KindCountingSink final : EventSink {
  std::array<std::uint64_t, kNumEventKinds> counts{};
  double volume_mb = 0.0;
  std::chrono::microseconds delay{0};

  void on_event(const StreamEvent& event) override {
    ++counts[static_cast<std::size_t>(event.kind())];
    if (event.kind() == EventKind::kSession) {
      volume_mb += std::get<SessionEvent>(event.payload).session.volume_mb;
    }
    if (delay.count() > 0) std::this_thread::sleep_for(delay);
  }
  [[nodiscard]] std::uint64_t of(EventKind kind) const {
    return counts[static_cast<std::size_t>(kind)];
  }
};

/// CSV body split into per-BS line sequences (BS = first comma field).
std::map<std::string, std::vector<std::string>> per_bs_lines(
    const std::string& csv) {
  std::map<std::string, std::vector<std::string>> by_bs;
  std::istringstream stream(csv);
  std::string line;
  std::getline(stream, line);  // header
  while (std::getline(stream, line)) {
    by_bs[line.substr(0, line.find(','))].push_back(line);
  }
  return by_bs;
}

// The tentpole guarantee restated for the typed data plane: the session CSV
// the engine writes is — per BS — byte-identical to the batch generator's,
// for every worker count and every batch size. Cross-BS interleaving is the
// only degree of freedom sharding and batching have.
TEST(EventPlane, SessionCsvParityForAnyWorkerCountAndBatchSize) {
  const Network network = make_network();
  const TraceConfig trace = make_trace();

  const std::string ref_path = temp_path("event_plane_ref.csv");
  {
    SessionCsvWriter writer(ref_path);
    TraceGenerator generator(network, trace);
    generator.run(writer);
    writer.close();
  }
  const auto reference = per_bs_lines(read_file(ref_path));
  std::remove(ref_path.c_str());

  std::string single_worker_bytes;
  for (std::size_t workers : {1u, 2u, 4u}) {
    for (std::size_t batch : {1u, 16u, 64u, 256u}) {
      const std::string path = temp_path(
          "event_plane_w" + std::to_string(workers) + "_b" +
          std::to_string(batch) + ".csv");
      EngineConfig config;
      config.num_workers = workers;
      config.queue_capacity = 64;  // small: exercise wraparound + blocking
      config.batch_size = batch;
      StreamEngine engine(network, trace, config);
      SessionCsvEventSink sink(network, path);
      const EngineResult result = engine.run(sink);
      sink.close();

      const std::string bytes = read_file(path);
      EXPECT_EQ(per_bs_lines(bytes), reference)
          << workers << " workers, batch " << batch;
      // One worker leaves no cross-BS nondeterminism either: the whole
      // byte stream is then invariant under the batch size.
      if (workers == 1) {
        if (single_worker_bytes.empty()) {
          single_worker_bytes = bytes;
        } else {
          EXPECT_EQ(bytes, single_worker_bytes) << "batch " << batch;
        }
      }
      EXPECT_TRUE(result.telemetry.accounted_for());
      EXPECT_EQ(result.telemetry.of(EventKind::kSegment).produced, 0u);
      EXPECT_EQ(result.telemetry.of(EventKind::kPacket).produced, 0u);
      std::remove(path.c_str());
    }
  }
}

// Enabling segment/packet expansion draws from separately salted RNG
// streams: the session events (and thus the CSV) must stay bit-identical,
// while segments and packets flow through the same rings.
TEST(EventPlane, ExpansionNeverPerturbsSessionContent) {
  const Network network = make_network();
  const TraceConfig trace = make_trace(1);

  const std::string session_only = temp_path("expansion_off.csv");
  const std::string expanded = temp_path("expansion_on.csv");
  for (const auto& [path, kinds] :
       {std::pair{session_only, EventKindMask::session_replay()},
        std::pair{expanded, EventKindMask::all()}}) {
    EngineConfig config;
    config.num_workers = 2;
    config.event_kinds = kinds;
    config.packet.max_packets = 64;  // bound the heavy-tail expansion
    StreamEngine engine(network, trace, config);
    SessionCsvEventSink sink(network, path);
    const EngineResult result = engine.run(sink);
    sink.close();
    EXPECT_TRUE(result.telemetry.accounted_for());
  }
  // workers fixed: per-BS parity implies byte parity only per BS, so
  // compare per-BS sequences.
  EXPECT_EQ(per_bs_lines(read_file(session_only)),
            per_bs_lines(read_file(expanded)));
  std::remove(session_only.c_str());
  std::remove(expanded.c_str());
}

TEST(EventPlane, PerKindAccountingOnCleanRun) {
  const Network network = make_network();
  const TraceConfig trace = make_trace(1);
  EngineConfig config;
  config.num_workers = 3;
  config.event_kinds = EventKindMask::all();
  config.packet.max_packets = 64;  // bound the heavy-tail expansion
  StreamEngine engine(network, trace, config);
  KindCountingSink sink;
  const EngineResult result = engine.run(sink);
  const TelemetrySnapshot& t = result.telemetry;

  EXPECT_TRUE(t.accounted_for()) << t.to_json().dump(2);
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    const EventKindCounters& c = t.kinds[k];
    // Clean blocking run: nothing dropped, nothing discarded, everything
    // that was produced reached the sink.
    EXPECT_EQ(c.consumed, c.produced) << k;
    EXPECT_EQ(c.dropped, 0u) << k;
    EXPECT_EQ(c.sink_errors, 0u) << k;
    EXPECT_EQ(c.discarded, 0u) << k;
    EXPECT_EQ(sink.counts[k], c.consumed) << k;
  }
  EXPECT_EQ(t.of(EventKind::kMinute).consumed,
            std::uint64_t(network.size()) * kMinutesPerDay);
  // Every session expands into at least one segment and at least one packet.
  EXPECT_GE(t.of(EventKind::kSegment).consumed,
            t.of(EventKind::kSession).consumed);
  EXPECT_GT(t.of(EventKind::kPacket).consumed,
            t.of(EventKind::kSession).consumed);
  // Checkpoint totals mirror the per-kind produced counters.
  EXPECT_EQ(result.checkpoint.sessions_emitted,
            t.of(EventKind::kSession).produced);
  EXPECT_EQ(result.checkpoint.minutes_emitted,
            t.of(EventKind::kMinute).produced);
  EXPECT_EQ(result.checkpoint.segments_emitted,
            t.of(EventKind::kSegment).produced);
  EXPECT_EQ(result.checkpoint.packets_emitted,
            t.of(EventKind::kPacket).produced);
}

TEST(EventPlane, PerKindAccountingUnderDropPolicy) {
  const Network network = make_network();
  const TraceConfig trace = make_trace(1);
  EngineConfig config;
  config.num_workers = 3;
  config.queue_capacity = 2;  // smallest legal ring: constant pressure
  config.batch_size = 4;
  config.event_kinds = EventKindMask::all();
  config.packet.max_packets = 64;  // bound the heavy-tail expansion
  config.backpressure = BackpressurePolicy::kDropNewest;
  StreamEngine engine(network, trace, config);
  KindCountingSink sink;
  sink.delay = std::chrono::microseconds(2);  // consumer slower than producers
  const EngineResult result = engine.run(sink);
  const TelemetrySnapshot& t = result.telemetry;

  std::uint64_t total_dropped = 0;
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    const EventKindCounters& c = t.kinds[k];
    EXPECT_EQ(c.produced, c.consumed + c.dropped) << k;
    EXPECT_EQ(sink.counts[k], c.consumed) << k;
    total_dropped += c.dropped;
  }
  EXPECT_GT(total_dropped, 0u);
  EXPECT_TRUE(t.accounted_for());
}

TEST(EventPlane, PerKindAccountingSurvivesFaultInjectedAbort) {
  const Network network = make_network();
  const TraceConfig trace = make_trace(2);

  // A foreign (non-retryable) exception from the segment sink point, mid
  // stream: the run must abort, drain, and still account for every event
  // of every kind.
  FaultInjector fault;
  FaultSpec spec;
  spec.action = FaultAction::kThrow;
  spec.after = 500;
  fault.arm("sink.segment", spec);

  EngineConfig config;
  config.num_workers = 3;
  config.event_kinds = EventKindMask::all();
  config.packet.max_packets = 64;  // bound the heavy-tail expansion
  config.fault = &fault;
  StreamEngine engine(network, trace, config);
  TelemetrySnapshot last;
  engine.on_snapshot([&](const TelemetrySnapshot& snap) { last = snap; });
  KindCountingSink sink;
  EXPECT_THROW((void)engine.run(sink), std::runtime_error);

  EXPECT_TRUE(last.accounted_for()) << last.to_json().dump(2);
  // The abort happened mid-day: something was produced, something was
  // discarded on the way down.
  EXPECT_GT(last.of(EventKind::kSegment).produced, 0u);
  std::uint64_t discarded = 0;
  for (const EventKindCounters& c : last.kinds) discarded += c.discarded;
  EXPECT_GT(discarded, 0u);
}

TEST(EventPlane, DegradePolicyCountsSinkErrorsPerKind) {
  const Network network = make_network();
  TraceConfig trace = make_trace(1);
  trace.rate_scale = 0.2;  // every packet throws: keep the count small

  // Reject every packet delivery; sessions, minutes and segments flow on.
  struct PacketRejectingSink final : EventSink {
    std::array<std::uint64_t, kNumEventKinds> counts{};
    void on_event(const StreamEvent& event) override {
      if (event.kind() == EventKind::kPacket) {
        throw std::runtime_error("packet branch down");
      }
      ++counts[static_cast<std::size_t>(event.kind())];
    }
  };

  EngineConfig config;
  config.num_workers = 2;
  config.event_kinds = EventKindMask::all();
  config.packet.max_packets = 32;  // bound the heavy-tail expansion
  config.sink_error_policy = SinkErrorPolicy::kDegrade;
  StreamEngine engine(network, trace, config);
  PacketRejectingSink sink;
  const EngineResult result = engine.run(sink);
  const TelemetrySnapshot& t = result.telemetry;

  EXPECT_TRUE(t.accounted_for()) << t.to_json().dump(2);
  const EventKindCounters& packets = t.of(EventKind::kPacket);
  EXPECT_GT(packets.produced, 0u);
  EXPECT_EQ(packets.sink_errors, packets.produced);
  EXPECT_EQ(packets.consumed, 0u);
  // The healthy kinds were not degraded.
  EXPECT_EQ(t.of(EventKind::kSession).sink_errors, 0u);
  EXPECT_EQ(t.of(EventKind::kSession).consumed,
            t.of(EventKind::kSession).produced);
  EXPECT_EQ(sink.counts[static_cast<std::size_t>(EventKind::kSession)],
            t.of(EventKind::kSession).consumed);
}

TEST(EventPlane, CheckpointResumeContinuesPerKindTotals) {
  const Network network = make_network();
  TraceConfig trace = make_trace(2);
  trace.rate_scale = 0.5;  // three full runs below: keep each one small
  EngineConfig config;
  config.num_workers = 2;
  config.event_kinds = EventKindMask::all();
  config.packet.max_packets = 64;  // bound the heavy-tail expansion

  // Full reference run.
  StreamEngine full(network, trace, config);
  KindCountingSink full_sink;
  const EngineResult full_result = full.run(full_sink);

  // Day 0, checkpoint, then resume day 1 — with a different worker count
  // and batch size, which must not matter.
  config.stop_after_days = 1;
  StreamEngine first(network, trace, config);
  KindCountingSink first_sink;
  const EngineResult first_result = first.run(first_sink);
  EXPECT_FALSE(first_result.checkpoint.complete());

  // Per-kind totals survive a JSON text round trip of the checkpoint.
  const EngineCheckpoint loaded = EngineCheckpoint::from_json(
      Json::parse(first_result.checkpoint.to_json().dump()));
  EXPECT_EQ(loaded.segments_emitted, first_result.checkpoint.segments_emitted);
  EXPECT_EQ(loaded.packets_emitted, first_result.checkpoint.packets_emitted);

  config.stop_after_days = 0;
  config.num_workers = 4;
  config.batch_size = 7;
  StreamEngine second(network, trace, config);
  KindCountingSink second_sink;
  const EngineResult resumed = second.resume(loaded, second_sink);

  EXPECT_TRUE(resumed.checkpoint.complete());
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    EXPECT_EQ(first_sink.counts[k] + second_sink.counts[k],
              full_sink.counts[k])
        << k;
    EXPECT_EQ(resumed.telemetry.kinds[k].produced,
              full_result.telemetry.kinds[k].produced)
        << k;
    EXPECT_EQ(resumed.telemetry.kinds[k].consumed,
              full_result.telemetry.kinds[k].consumed)
        << k;
  }
  EXPECT_EQ(resumed.checkpoint.sessions_emitted,
            full_result.checkpoint.sessions_emitted);
  EXPECT_EQ(resumed.checkpoint.minutes_emitted,
            full_result.checkpoint.minutes_emitted);
  EXPECT_EQ(resumed.checkpoint.segments_emitted,
            full_result.checkpoint.segments_emitted);
  EXPECT_EQ(resumed.checkpoint.packets_emitted,
            full_result.checkpoint.packets_emitted);
  // Checkpoint volume folds in canonical (day, BS) order — exact; telemetry
  // volume accumulates in consumption order, so only near-equality holds.
  EXPECT_DOUBLE_EQ(resumed.checkpoint.volume_mb,
                   full_result.checkpoint.volume_mb);
  EXPECT_NEAR(resumed.telemetry.volume_mb, full_result.telemetry.volume_mb,
              1e-6 * full_result.telemetry.volume_mb);
}

TEST(EventPlane, RejectsZeroBatchSize) {
  const Network network = make_network();
  EngineConfig config;
  config.batch_size = 0;
  EXPECT_THROW(StreamEngine(network, make_trace(1), config), InvalidArgument);
}

}  // namespace
}  // namespace mtd
