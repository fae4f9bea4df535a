// Sharded streaming replay engine.
//
// Turns the batch trace generator into an online runtime: the network's
// base stations are sharded across N worker threads, each advancing a
// minute-tick virtual clock and producing typed StreamEvents (minute
// counts, sessions, and — when enabled — handover segments and packet
// schedules expanding each session) into its own bounded SPSC ring; a
// single consumer thread drains the rings into one EventSink. Events move
// through the rings in batches of EngineConfig::batch_size to amortize the
// atomic head/tail traffic. Because every (BS, day) has an independent RNG
// stream (see TraceGenerator::bs_day_rng; segment/packet expansion draws
// from separately salted per-(BS, day) streams), the per-BS event sequence
// delivered to the sink is bit-identical to the batch path for any worker
// count and any batch size — sharding and batching change only the
// interleaving across BSs, never the content.
//
// Two pacing modes: a scaled virtual clock (time_scale simulated seconds
// per wall second) for live replay, or max-throughput (time_scale <= 0).
// When the consumer falls behind, the configured backpressure policy either
// parks the producers (lossless; stall time is metered) or drops events
// (per-kind drop counters in telemetry). Day boundaries (and, optionally,
// a minute interval) are marks at which the engine records a checkpoint
// (engine/checkpoint.hpp) from which a later run resumes bit-identically.
// Every checkpoint is an exact cut at the sink: the consumer stops draining
// a worker's ring at that worker's mark until every worker's mark for the
// same minute has arrived. A worker held at a mark keeps producing until
// its ring is full, so ring capacity bounds how far it runs ahead; under
// kDropNewest it then sheds batches exactly as it would in front of a
// slow consumer.
#pragma once

#include <array>
#include <cstdint>
#include <functional>

#include "dataset/generator.hpp"
#include "dataset/network.hpp"
#include "engine/checkpoint.hpp"
#include "engine/telemetry.hpp"
#include "events/event_sink.hpp"
#include "events/stream_event.hpp"
#include "mobility/handover.hpp"
#include "packet/packet_schedule.hpp"

namespace mtd {

class FaultInjector;

/// What producers do when their ring is full.
enum class BackpressurePolicy : std::uint8_t {
  kBlock,      ///< wait for the consumer; lossless, stall time metered
  kDropNewest, ///< drop the batch being pushed; counted in telemetry
};

[[nodiscard]] const char* to_string(BackpressurePolicy p) noexcept;

struct EngineConfig {
  /// Worker (producer) threads; clamped to the number of BSs.
  std::size_t num_workers = 2;
  /// Slots per worker ring (rounded up to a power of two). Each slot holds
  /// one EventBatch, so the buffered-event bound is queue_capacity *
  /// batch_size per worker. Batch buffers are recycled through the slots
  /// and kept for the whole run, so each worker retains up to
  /// queue_capacity * batch_size * sizeof(StreamEvent) (72 B) bytes: about
  /// 1.2 MB at the defaults, whether or not the consumer keeps up.
  std::size_t queue_capacity = 256;
  /// Events per ring transfer (>= 1). Larger batches amortize the atomic
  /// ring traffic; under kDropNewest a full ring drops a whole batch.
  std::size_t batch_size = 64;
  /// Which generation kernel the workers drive (dataset/generator.hpp).
  /// kScalar reproduces the pre-batch per-(BS, day) streams bit-exactly;
  /// kBatch fills SoA minute blocks (BlockRng v1 stream — statistically
  /// identical, bit-wise different, 1.5x+ the sessions/s). Segment and
  /// packet expansion streams are scalar under both kernels, and both
  /// kernels are invariant to worker count and batch size. Checkpoints
  /// resume bit-identically under the kernel that produced them. A
  /// checkpoint taken under one kernel also resumes under the other: a
  /// mid-day one replays its day's prefix under the new kernel, so the
  /// rest of that day is the new kernel's stream.
  GeneratorKernel kernel = GeneratorKernel::kScalar;
  /// Which event kinds the workers produce. Minute and session events
  /// reproduce the pre-refactor session replay; adding kSegment expands
  /// every session into its handover chain (config `mobility`), adding
  /// kPacket into its packet schedule (config `packet`). Expansion draws
  /// from separately salted per-(BS, day) RNG streams, so enabling it
  /// never perturbs the session content.
  EventKindMask event_kinds = EventKindMask::session_replay();
  MobilityConfig mobility;
  PacketScheduleConfig packet;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Simulated seconds per wall-clock second; <= 0 streams at maximum
  /// throughput. 60 replays one simulated minute per real second; 86400
  /// replays a whole day in one second (clock granularity is one minute).
  double time_scale = 0.0;
  /// Wall seconds between telemetry snapshots handed to the snapshot
  /// callback; 0 disables periodic snapshots (the final one is always
  /// produced).
  double telemetry_period_s = 0.0;
  /// Stop after this many days of this run (0 = run to the trace horizon).
  /// The engine returns a resumable checkpoint either way.
  std::size_t stop_after_days = 0;
  /// When > 0, the engine additionally checkpoints every time the replay
  /// clock crosses a multiple of this many minutes (absolute simulated
  /// minutes, so the mark grid is stable across stop/resume splits).
  /// A mid-day checkpoint is as small as a day-boundary one: resuming from
  /// it replays the day's prefix without emitting it, so the replay costs
  /// up to one day of generation per resume. A multiple landing on a day
  /// boundary is that day boundary's checkpoint. 0 checkpoints at day
  /// boundaries only.
  std::size_t checkpoint_interval_minutes = 0;
  /// How a throwing sink is handled (see SinkErrorPolicy). Under kDegrade
  /// the per-kind accounting identity produced == consumed + dropped +
  /// sink_errors still holds exactly; failed deliveries are never silently
  /// lost.
  SinkErrorPolicy sink_error_policy = SinkErrorPolicy::kFailFast;
  /// When > 0, a watchdog thread aborts the run with a retryable
  /// EngineError if no counter makes progress for this many wall seconds
  /// (stalled consumer, wedged worker). 0 disables the watchdog. Pick a
  /// deadline well above one virtual-minute interval when pacing with
  /// time_scale, or the idle wait between minutes will trip it. Time inside
  /// the on_checkpoint callback (a store commit) does not count; a callback
  /// that never returns is beyond the watchdog's reach.
  double watchdog_timeout_s = 0.0;
  /// Optional failure-injection registry (non-owning; tests). Null in
  /// production: every fault point is then a single branch.
  FaultInjector* fault = nullptr;
};

/// Outcome of a (partial) engine run.
struct EngineResult {
  EngineCheckpoint checkpoint;
  TelemetrySnapshot telemetry;
};

class StreamEngine {
 public:
  StreamEngine(const Network& network, const TraceConfig& trace,
               EngineConfig config = {});

  /// Streams days [0, horizon) — or fewer under stop_after_days — into
  /// `sink`. All sink callbacks happen on one consumer thread. Blocking
  /// call; returns once producers and consumer have drained.
  [[nodiscard]] EngineResult run(EventSink& sink);

  /// Continues a run from a checkpoint — a day boundary, or any mid-day
  /// minute, whose day prefix the workers replay without emitting. Throws
  /// InvalidArgument when the checkpoint does not match this engine's
  /// network/trace configuration. The worker count may differ from the
  /// run that produced the checkpoint — per-BS streams do not depend on
  /// the sharding.
  [[nodiscard]] EngineResult resume(const EngineCheckpoint& from,
                                    EventSink& sink);

  /// Called with every periodic telemetry snapshot (consumer thread). The
  /// final snapshot is always delivered — also on the failure path, as the
  /// last diagnostic before the error propagates.
  void on_snapshot(std::function<void(const TelemetrySnapshot&)> callback) {
    snapshot_callback_ = std::move(callback);
  }

  /// Called (consumer thread) every time a checkpoint — day-boundary or
  /// minute-interval — is recorded; the engine itself persists nothing.
  /// Contract: when the callback runs for `cp`, the sink has received every
  /// event of this run below `cp.clock_minute` (less any shed under
  /// kDropNewest or absorbed as sink errors under kDegrade) and none at or
  /// after it, so whatever the sink holds is exactly what `cp` covers.
  /// This is the one commit hook: run_engine_into_store commits the
  /// writer's pending events together with the checkpoint here.
  /// An exception from the callback aborts the run like a sink failure; no
  /// event reaches the sink after it.
  void on_checkpoint(std::function<void(const EngineCheckpoint&)> callback) {
    checkpoint_callback_ = std::move(callback);
  }

  [[nodiscard]] const Network& network() const noexcept {
    return generator_.network();
  }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }

 private:
  /// Streams from absolute minute `start_minute`; when it sits inside a
  /// day, the workers first replay that day's earlier minutes.
  [[nodiscard]] EngineResult run_days(
      EventSink& sink, std::uint64_t start_minute,
      const std::array<std::uint64_t, kNumEventKinds>& prior,
      double prior_volume);

  TraceGenerator generator_;
  EngineConfig config_;
  std::uint64_t fingerprint_;
  std::function<void(const TelemetrySnapshot&)> snapshot_callback_;
  std::function<void(const EngineCheckpoint&)> checkpoint_callback_;
};

}  // namespace mtd
