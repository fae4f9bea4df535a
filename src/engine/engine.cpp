#include "engine/engine.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "common/time_utils.hpp"
#include "common/fault.hpp"
#include "engine/spsc_ring.hpp"

namespace mtd {

const char* to_string(BackpressurePolicy p) noexcept {
  switch (p) {
    case BackpressurePolicy::kBlock: return "block";
    case BackpressurePolicy::kDropNewest: return "drop";
  }
  return "?";
}

namespace {

/// The consumer-side fault point of each event kind.
constexpr const char* kSinkFaultPoint[kNumEventKinds] = {
    "sink.minute", "sink.session", "sink.segment", "sink.packet"};

/// Independent expansion streams derived from the (BS, day) base stream:
/// segment and packet draws never touch the session RNG, so enabling the
/// expansions keeps session content bit-identical.
constexpr std::uint64_t kSegmentStream = 0x7365676dULL;  // "segm"
constexpr std::uint64_t kPacketStream = 0x70616b74ULL;   // "pakt"

/// Cooperative cross-thread failure propagation: any thread (worker,
/// consumer, watchdog) signals the first failure it sees; producers observe
/// the flag at every minute tick and before parking on a full ring, the
/// consumer at every sweep. Only the first exception is kept — later ones
/// are cascade effects of the same abort.
class StopState {
 public:
  std::atomic<bool> flag{false};

  void signal(std::exception_ptr error) noexcept MTD_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      if (!first_) first_ = std::move(error);
    }
    flag.store(true, std::memory_order_release);
  }

  [[nodiscard]] bool requested() const noexcept {
    return flag.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::exception_ptr first_error() MTD_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return first_;
  }

 private:
  Mutex mutex_;
  std::exception_ptr first_ MTD_GUARDED_BY(mutex_);
};

/// One ring slot. kBatch carries up to batch_size data events in
/// generation order. A kMinuteMark follows every minute on one absolute
/// grid — every day boundary, plus every multiple of
/// checkpoint_interval_minutes when that is set — carrying the shard's
/// cumulative per-kind produced counters and, at a day boundary, its
/// per-BS day volumes. Once every worker's mark for the same minute has
/// arrived, the consumer records a checkpoint; at a day boundary it first
/// commits the day's volume as a fold over BSs in canonical index order,
/// which keeps the checkpoint's counters bit-identical across worker
/// counts, batch sizes, and stop/resume splits. Marks always block, never
/// drop. Items circulate: the ring hands each push the slot's previous item,
/// which the worker reuses (batch cleared, capacity kept) as its next
/// pending item. The consumer releases a mark's day volumes once it has
/// read them, so recycled items carry no day-sized buffer back.
struct RingItem {
  enum class Kind : std::uint8_t { kBatch, kMinuteMark };
  Kind kind = Kind::kBatch;
  EventBatch batch;                   // kBatch
  std::uint64_t minute_end = 0;       // kMinuteMark: first unproduced minute
  std::array<std::uint64_t, kNumEventKinds> shard_produced{};  // kMinuteMark
  std::vector<double> day_volume;  // kMinuteMark at a day end, in bss_ order
};

/// Scaled virtual clock: minute m of the replay maps to a wall-clock
/// deadline; every worker paces itself against the shared epoch, so no
/// cross-thread coordination is needed.
struct VirtualClock {
  double time_scale = 0.0;  // <= 0: max throughput, never waits
  std::chrono::steady_clock::time_point epoch;
  std::uint64_t base_minute = 0;

  void wait_until(std::uint64_t minute) const {
    if (time_scale <= 0.0) return;
    // A difference of doubles, not of unsigned minutes: a minute below the
    // base maps to a past deadline instead of wrapping to a huge wait.
    const double wall_s =
        (static_cast<double>(minute) - static_cast<double>(base_minute)) *
        static_cast<double>(kSecondsPerMinute) / time_scale;
    std::this_thread::sleep_until(epoch + std::chrono::duration_cast<
                                              std::chrono::steady_clock::duration>(
                                      std::chrono::duration<double>(wall_s)));
  }
};

class ShardWorker {
 public:
  ShardWorker(const TraceGenerator& generator, const EngineConfig& config,
              std::vector<std::uint32_t> bss)
      : generator_(&generator),
        bss_(std::move(bss)),
        ring_(config.queue_capacity),
        batch_size_(config.batch_size),
        kernel_(config.kernel),
        interval_(config.checkpoint_interval_minutes),
        kinds_(config.event_kinds),
        mobility_(config.mobility),
        packet_(config.packet) {
    pending_.batch.reserve(batch_size_);
  }

  SpscRing<RingItem>& ring() noexcept { return ring_; }
  [[nodiscard]] const std::vector<std::uint32_t>& bss() const noexcept {
    return bss_;
  }

  /// Events staged but never pushed (abort before the batch flushed). Read
  /// by the engine after the worker thread has been joined.
  [[nodiscard]] const EventBatch& pending() const noexcept {
    return pending_.batch;
  }

  void run(std::uint64_t start_minute, std::size_t last_day,
           const VirtualClock& clock, BackpressurePolicy policy,
           Telemetry::PerWorker& tel, const std::atomic<bool>& abort,
           FaultInjector* fault) {
    abort_ = &abort;
    // Shared produced counters are published at minute granularity; this
    // guard covers every return path (including aborts), so post-join
    // accounting always sees the final local counts.
    struct PublishGuard {
      ShardWorker* worker;
      Telemetry::PerWorker* tel;
      ~PublishGuard() { worker->publish_produced(*tel); }
    } publish_guard{this, &tel};
    const Network& network = generator_->network();
    const bool emit_minutes = kinds_.contains(EventKind::kMinute);
    const bool emit_sessions = kinds_.contains(EventKind::kSession);
    const bool emit_segments = kinds_.contains(EventKind::kSegment);
    const bool emit_packets = kinds_.contains(EventKind::kPacket);
    std::vector<BaseStation> scaled(bss_.size());
    std::vector<Rng> rngs(bss_.size(), Rng(0));
    std::vector<Rng> seg_rngs(bss_.size(), Rng(0));
    std::vector<Rng> pkt_rngs(bss_.size(), Rng(0));
    std::vector<double> day_volume(bss_.size(), 0.0);
    std::vector<std::uint64_t> seqs(bss_.size(), 0);
    const auto first_day =
        static_cast<std::size_t>(start_minute / kMinutesPerDay);

    for (std::size_t day = first_day; day < last_day; ++day) {
      fault_fire(fault, "worker.day");
      // Day boundary: every (BS, day) stream re-seeds, which is what makes
      // checkpoints O(1) (see engine/checkpoint.hpp). The expansion streams
      // are split off the base stream without consuming it, so the session
      // draws stay exactly the batch generator's.
      for (std::size_t i = 0; i < bss_.size(); ++i) {
        const BaseStation& bs = network[bss_[i]];
        scaled[i] = generator_->day_scaled(bs, day);
        rngs[i] = generator_->bs_day_rng(bs, day);
        seg_rngs[i] = rngs[i].split(kSegmentStream);
        pkt_rngs[i] = rngs[i].split(kPacketStream);
        day_volume[i] = 0.0;
        seqs[i] = 0;
      }
      for (std::size_t minute = 0; minute < kMinutesPerDay; ++minute) {
        const std::uint64_t abs_minute = day * kMinutesPerDay + minute;
        // A mid-day resume replays its day's prefix: the minutes below
        // start_minute make the same draws with append a no-op, so the
        // streams, seqs and day volumes reach start_minute exactly as in
        // the uninterrupted run. A replayed minute stages nothing, fires
        // no fault point and never waits on the clock.
        replaying_ = abs_minute < start_minute;
        FaultInjector* const minute_fault = replaying_ ? nullptr : fault;
        if (!replaying_) clock.wait_until(abs_minute);
        if (abort.load(std::memory_order_relaxed)) return;
        for (std::size_t i = 0; i < bss_.size(); ++i) {
          const BaseStation& bs = network[bss_[i]];
          generator_->sample_minute(scaled[i], day, minute, rngs[i], kernel_,
                                    block_);
          const EventKey base_key{bs.id, static_cast<std::uint16_t>(day),
                                  static_cast<std::uint16_t>(minute), 0};
          if (emit_minutes) {
            StreamEvent ev;
            ev.key = base_key;
            ev.key.seq = seqs[i]++;
            ev.payload = MinuteEvent{block_.count};
            if (!append(std::move(ev), policy, tel)) return;
          }
          Session session;
          session.bs = bs.id;
          session.day = static_cast<std::uint16_t>(day);
          session.minute_of_day = static_cast<std::uint16_t>(minute);
          for (std::uint32_t k = 0; k < block_.count; ++k) {
            fault_fire(minute_fault, "worker.session");
            // Column k of the minute block becomes the event payload.
            session.service = block_.service[k];
            session.transient = block_.transient[k] != 0;
            session.volume_mb = block_.volume_mb[k];
            session.duration_s = block_.duration_s[k];
            day_volume[i] += session.volume_mb;
            // The session's slot in the (BS, day) order is allocated even
            // when session events are masked out, so segment and packet
            // events always reference a stable session_seq.
            const std::uint64_t session_seq = seqs[i]++;
            if (emit_sessions) {
              StreamEvent ev;
              ev.key = base_key;
              ev.key.seq = session_seq;
              ev.payload = SessionEvent{session};
              if (!append(std::move(ev), policy, tel)) return;
            }
            if (emit_segments) {
              const HandoverChain chain = mobility_.split(
                  session.volume_mb, session.duration_s, seg_rngs[i]);
              for (const SessionSegment& segment : chain.segments) {
                StreamEvent ev;
                ev.key = base_key;
                ev.key.seq = seqs[i]++;
                ev.payload = SegmentEvent{segment, session.service,
                                          chain.state, session_seq};
                if (!append(std::move(ev), policy, tel)) return;
              }
            }
            if (emit_packets) {
              packet_.generate_stream(
                  session.volume_mb, session.duration_s, pkt_rngs[i],
                  [&](const Packet& packet) {
                    if (aborted_) return;  // cannot break out of the stream
                    StreamEvent ev;
                    ev.key = base_key;
                    ev.key.seq = seqs[i]++;
                    ev.payload =
                        PacketEvent{packet, session.service, session_seq};
                    static_cast<void>(append(std::move(ev), policy, tel));
                  });
              if (aborted_) return;
            }
          }
        }
        if (replaying_) {
          // Progress for the watchdog, which would otherwise see a
          // replaying worker as stalled.
          tel.replayed_minutes.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        publish_produced(tel);
        tel.produced_minute.store(abs_minute + 1, std::memory_order_relaxed);
        // Mark grid: every day boundary plus the interval multiples. The
        // grid is absolute minutes, so a resumed run marks the same
        // minutes the original would have.
        const std::uint64_t next_minute = abs_minute + 1;
        const bool day_end = next_minute % kMinutesPerDay == 0;
        if (day_end || (interval_ > 0 && next_minute % interval_ == 0)) {
          // Flush first so every event before the mark precedes it in the
          // FIFO ring.
          if (!flush(policy, tel)) return;
          pending_.kind = RingItem::Kind::kMinuteMark;
          pending_.minute_end = next_minute;
          pending_.shard_produced = produced_;
          if (day_end) pending_.day_volume = day_volume;
          if (!push_pending(BackpressurePolicy::kBlock, tel)) return;
        }
      }
    }
  }

 private:
  /// Stages one event into the pending batch, flushing when full; a no-op
  /// during a replayed minute. Produced counters include dropped events:
  /// they were generated; the drop counters say what never reached the
  /// sink. Returns false only when aborted while waiting for ring space.
  bool append(StreamEvent&& ev, BackpressurePolicy policy,
              Telemetry::PerWorker& tel) {
    if (replaying_) return true;
    if (aborted_) return false;
    const auto kind = static_cast<std::size_t>(ev.kind());
    ++produced_[kind];
    // The shared counter is fed from produced_ in publish_produced —
    // a per-event fetch_add here was measurable at batch-kernel rates.
    pending_.batch.push_back(std::move(ev));
    if (pending_.batch.size() >= batch_size_) return flush(policy, tel);
    return true;
  }

  /// Publishes produced_ into the shared telemetry block: one atomic add
  /// per kind that advanced since the last publish. Called per minute and
  /// on every exit from run(), so externally observed counts lag a
  /// worker's local ones by at most one minute of events.
  void publish_produced(Telemetry::PerWorker& tel) noexcept {
    for (std::size_t k = 0; k < kNumEventKinds; ++k) {
      const std::uint64_t delta = produced_[k] - published_[k];
      if (delta != 0) {
        tel.produced[k].fetch_add(delta, std::memory_order_relaxed);
        published_[k] = produced_[k];
      }
    }
  }

  bool flush(BackpressurePolicy policy, Telemetry::PerWorker& tel) {
    if (pending_.batch.empty()) return true;
    return push_pending(policy, tel);
  }

  /// Pushes pending_ under the backpressure policy and takes the slot's
  /// previous item back as the next pending_ batch: cleared, its capacity
  /// kept, so no batch is allocated once the ring has wrapped. A dropped
  /// kBatch counts every event it carried, per kind. A blocked push parks
  /// until the consumer has drained the ring to half full.
  bool push_pending(BackpressurePolicy policy, Telemetry::PerWorker& tel) {
    if (!ring_.try_push(pending_)) {
      if (policy == BackpressurePolicy::kDropNewest &&
          pending_.kind == RingItem::Kind::kBatch) {
        for (const StreamEvent& ev : pending_.batch) {
          tel.count_dropped(ev.kind());
        }
        pending_.batch.clear();
        return true;
      }
      const auto blocked_at = std::chrono::steady_clock::now();
      while (!ring_.try_push(pending_)) {
        if (abort_->load(std::memory_order_relaxed)) {
          // The batch never reached the ring and stays in pending_, where
          // the post-join sweep counts its events discarded, so the
          // per-kind conservation identity closes on this path too. A
          // parked worker gets here through the consumer's stop-path
          // drain, whose pops wake it.
          aborted_ = true;
          return false;
        }
        ring_.wait_for_space();
      }
      tel.stall_ns.fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - blocked_at)
                  .count()),
          std::memory_order_relaxed);
    }
    pending_.kind = RingItem::Kind::kBatch;
    pending_.batch.clear();
    pending_.batch.reserve(batch_size_);
    return true;
  }

  const TraceGenerator* generator_;
  std::vector<std::uint32_t> bss_;
  SpscRing<RingItem> ring_;
  std::size_t batch_size_;
  GeneratorKernel kernel_;
  std::size_t interval_;
  EventKindMask kinds_;
  MinuteBlock block_;  // reused per-minute session columns
  HandoverChainGenerator mobility_;
  PacketScheduleGenerator packet_;
  RingItem pending_;  // the batch being staged, or the mark being pushed
  std::array<std::uint64_t, kNumEventKinds> produced_{};
  std::array<std::uint64_t, kNumEventKinds> published_{};  // in telemetry
  const std::atomic<bool>* abort_ = nullptr;
  bool aborted_ = false;
  bool replaying_ = false;  // the current minute is a resume's replay
};

}  // namespace

StreamEngine::StreamEngine(const Network& network, const TraceConfig& trace,
                           EngineConfig config)
    : generator_(network, trace),
      config_(std::move(config)),
      fingerprint_(network_fingerprint(network)) {
  if (config_.num_workers == 0) {
    config_.num_workers =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  config_.num_workers = std::min(config_.num_workers, network.size());
  require(config_.queue_capacity >= 2,
          "StreamEngine: queue_capacity must be at least 2");
  require(config_.batch_size >= 1,
          "StreamEngine: batch_size must be at least 1");
}

EngineResult StreamEngine::run(EventSink& sink) {
  return run_days(sink, 0, {}, 0.0);
}

EngineResult StreamEngine::resume(const EngineCheckpoint& from,
                                  EventSink& sink) {
  const TraceConfig& trace = generator_.config();
  const auto mismatch = [](const char* field, const std::string& expected,
                           const std::string& actual) {
    return InvalidArgument(std::string("StreamEngine::resume: checkpoint "
                                       "mismatch on ") +
                           field + ": engine expects " + expected +
                           ", checkpoint has " + actual);
  };
  if (from.seed != trace.seed) {
    throw mismatch("trace.seed", to_hex(trace.seed), to_hex(from.seed));
  }
  if (from.num_days != trace.num_days) {
    throw mismatch("trace.num_days", std::to_string(trace.num_days),
                   std::to_string(from.num_days));
  }
  if (from.rate_scale != trace.rate_scale) {
    throw mismatch("trace.rate_scale", std::to_string(trace.rate_scale),
                   std::to_string(from.rate_scale));
  }
  if (from.weekend_rate_factor != trace.weekend_rate_factor) {
    throw mismatch("trace.weekend_rate_factor",
                   std::to_string(trace.weekend_rate_factor),
                   std::to_string(from.weekend_rate_factor));
  }
  if (from.network_fingerprint != fingerprint_) {
    throw mismatch("network_fingerprint", to_hex(fingerprint_),
                   to_hex(from.network_fingerprint));
  }
  if (from.clock_minute >
      static_cast<std::uint64_t>(trace.num_days) * kMinutesPerDay) {
    throw InvalidArgument(
        "StreamEngine::resume: checkpoint cursor (clock_minute=" +
        std::to_string(from.clock_minute) +
        ", next_day=" + std::to_string(from.next_day()) +
        ") is beyond the horizon (num_days=" +
        std::to_string(trace.num_days) + ")");
  }
  std::array<std::uint64_t, kNumEventKinds> prior{};
  prior[static_cast<std::size_t>(EventKind::kMinute)] = from.minutes_emitted;
  prior[static_cast<std::size_t>(EventKind::kSession)] =
      from.sessions_emitted;
  prior[static_cast<std::size_t>(EventKind::kSegment)] =
      from.segments_emitted;
  prior[static_cast<std::size_t>(EventKind::kPacket)] = from.packets_emitted;
  return run_days(sink, from.clock_minute, prior, from.volume_mb);
}

EngineResult StreamEngine::run_days(
    EventSink& sink, std::uint64_t start_minute,
    const std::array<std::uint64_t, kNumEventKinds>& prior,
    double prior_volume) {
  const Network& network = generator_.network();
  const TraceConfig& trace = generator_.config();
  const auto first_day =
      static_cast<std::size_t>(start_minute / kMinutesPerDay);
  const std::size_t budget =
      config_.stop_after_days == 0 ? trace.num_days : config_.stop_after_days;
  const std::size_t last_day =
      std::min(trace.num_days, first_day + budget);
  const std::size_t num_workers = config_.num_workers;
  using KindTotals = std::array<std::uint64_t, kNumEventKinds>;

  // `volume_mb` is the absolute committed volume: prior volume plus one
  // per-day increment per finished day, each folded over BSs in index
  // order. That single canonical association order makes the counter
  // bit-identical across worker counts, batch sizes, and stop/resume
  // splits.
  auto make_checkpoint = [&](std::uint64_t clock_minute,
                             const KindTotals& totals, double volume_mb) {
    EngineCheckpoint cp;
    cp.seed = trace.seed;
    cp.num_days = trace.num_days;
    cp.rate_scale = trace.rate_scale;
    cp.weekend_rate_factor = trace.weekend_rate_factor;
    cp.network_fingerprint = fingerprint_;
    cp.clock_minute = clock_minute;
    const auto idx = [](EventKind k) { return static_cast<std::size_t>(k); };
    cp.minutes_emitted =
        prior[idx(EventKind::kMinute)] + totals[idx(EventKind::kMinute)];
    cp.sessions_emitted =
        prior[idx(EventKind::kSession)] + totals[idx(EventKind::kSession)];
    cp.segments_emitted =
        prior[idx(EventKind::kSegment)] + totals[idx(EventKind::kSegment)];
    cp.packets_emitted =
        prior[idx(EventKind::kPacket)] + totals[idx(EventKind::kPacket)];
    cp.volume_mb = volume_mb;
    return cp;
  };

  Telemetry telemetry(num_workers);
  telemetry.start(prior, prior_volume);
  for (std::size_t w = 0; w < num_workers; ++w) {
    telemetry.worker(w).produced_minute.store(start_minute,
                                              std::memory_order_relaxed);
  }

  // Nothing to stream (resume of a finished replay, or zero-day budget).
  if (first_day >= last_day) {
    EngineResult result;
    result.checkpoint =
        make_checkpoint(start_minute, KindTotals{}, prior_volume);
    result.telemetry = telemetry.snapshot(0);
    return result;
  }

  // Strided BS partition keeps the decile mix balanced per shard. Workers
  // hold atomics (the ring), so they live behind stable pointers.
  std::vector<std::unique_ptr<ShardWorker>> shards;
  shards.reserve(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) {
    std::vector<std::uint32_t> bss;
    for (std::size_t b = w; b < network.size(); b += num_workers) {
      bss.push_back(static_cast<std::uint32_t>(b));
    }
    shards.push_back(
        std::make_unique<ShardWorker>(generator_, config_, std::move(bss)));
  }

  VirtualClock clock{config_.time_scale, std::chrono::steady_clock::now(),
                     start_minute};
  StopState stop;
  std::atomic<std::size_t> active{num_workers};

  std::vector<std::thread> threads;
  threads.reserve(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) {
    threads.emplace_back([&, w] {
      try {
        shards[w]->run(start_minute, last_day, clock, config_.backpressure,
                       telemetry.worker(w), stop.flag, config_.fault);
      } catch (...) {
        // First-exception capture: a worker fault stops the whole engine;
        // the consumer notices, drains, joins, and rethrows this.
        stop.signal(std::current_exception());
      }
      active.fetch_sub(1, std::memory_order_release);
    });
  }

  auto queue_depth = [&] {
    std::uint64_t depth = 0;
    for (const auto& s : shards) depth += s->ring().size();
    return depth;
  };

  // Watchdog: aborts the run when no counter moves for the configured
  // deadline — a consumer wedged in a sink call, a stuck worker, a
  // livelocked pipeline. It only observes atomics, so it can never deadlock
  // with the threads it guards; a genuinely unbounded stall inside a sink
  // callback is beyond its reach (we never detach threads). Time inside the
  // checkpoint hook (a store commit, during which the producers park on
  // full rings) is not a stall: `hook_calls` is odd while the hook runs,
  // and the watchdog restarts its deadline whenever it sees it odd. So a
  // hook that never returns is beyond its reach too.
  std::atomic<bool> engine_done{false};
  std::atomic<std::uint64_t> hook_calls{0};
  std::thread watchdog;
  if (config_.watchdog_timeout_s > 0.0) {
    watchdog = std::thread([&] {
      const auto deadline =
          std::chrono::duration<double>(config_.watchdog_timeout_s);
      const auto poll = std::min(std::chrono::duration<double>(0.05),
                                 deadline / 4.0);
      auto signature = [&] {
        const TelemetrySnapshot s = telemetry.snapshot(0);
        std::uint64_t sum = s.clock_minute;
        for (const EventKindCounters& c : s.kinds) {
          sum += c.produced + c.consumed + c.dropped + c.sink_errors +
                 c.discarded;
        }
        for (std::size_t w = 0; w < num_workers; ++w) {
          sum += telemetry.worker(w).replayed_minutes.load(
              std::memory_order_relaxed);
        }
        return sum;
      };
      std::uint64_t last_signature = signature();
      auto last_change = std::chrono::steady_clock::now();
      while (!engine_done.load(std::memory_order_acquire) &&
             !stop.requested()) {
        std::this_thread::sleep_for(poll);
        const std::uint64_t now_signature = signature();
        const auto now = std::chrono::steady_clock::now();
        const bool in_hook =
            (hook_calls.load(std::memory_order_acquire) & 1U) != 0;
        if (in_hook || now_signature != last_signature) {
          last_signature = now_signature;
          last_change = now;
          continue;
        }
        if (now - last_change >= deadline) {
          stop.signal(std::make_exception_ptr(EngineError(
              "StreamEngine: watchdog detected a stalled pipeline (no "
              "progress for " +
                  std::to_string(config_.watchdog_timeout_s) + " s)",
              /*retryable=*/true)));
          break;
        }
      }
    });
  }

  // Consumer: this thread drains every ring into the sink.
  EngineResult result;
  double committed_volume = prior_volume;
  // Each shard's day-boundary mark scatters its BSs' day volumes here, so
  // the day's sum folds over BSs in network index order.
  std::vector<double> day_volumes(network.size(), 0.0);
  // The one mark in flight. Once the consumer pops worker w's mark it
  // holds w's ring until every worker's mark for that minute has arrived,
  // so the checkpoint is an exact cut at the sink: FIFO rings put each
  // shard's events below the minute ahead of its mark, and its events at
  // or after the minute behind it. A held worker keeps producing into its
  // ring until that fills, so ring capacity bounds its lead.
  struct PendingMark {
    std::size_t workers = 0;
    KindTotals totals{};
  };
  PendingMark pending;
  std::vector<char> held(num_workers, 0);
  auto last_snapshot = std::chrono::steady_clock::now();
  std::uint64_t delivered_since_check = 0;

  auto maybe_snapshot = [&] {
    if (config_.telemetry_period_s <= 0.0 || !snapshot_callback_) return;
    const auto now = std::chrono::steady_clock::now();
    if (std::chrono::duration<double>(now - last_snapshot).count() <
        config_.telemetry_period_s) {
      return;
    }
    last_snapshot = now;
    snapshot_callback_(telemetry.snapshot(queue_depth()));
  };

  // Returns true when the event reached the sink, false when the failure
  // was absorbed as a sink error (kDegrade); throws under kFailFast.
  auto deliver_event = [&](const StreamEvent& ev) -> bool {
    const EventKind kind = ev.kind();
    try {
      fault_fire(config_.fault,
                 kSinkFaultPoint[static_cast<std::size_t>(kind)]);
      sink.on_event(ev);
      return true;
    } catch (...) {
      if (config_.sink_error_policy == SinkErrorPolicy::kFailFast) {
        // The in-flight event dies with the abort; count it discarded so
        // the per-kind conservation identity stays exact on failure paths.
        telemetry.count_discarded(kind);
        throw;
      }
      telemetry.count_sink_error(kind);
      return false;
    }
  };

  auto deliver = [&](RingItem& item, std::size_t w) {
    switch (item.kind) {
      case RingItem::Kind::kBatch: {
        // Consumed counts aggregate locally across the batch — one atomic
        // add per kind instead of per event — and flush on both the
        // success and the failure path, so the identity stays exact.
        std::array<std::uint64_t, kNumEventKinds> consumed{};
        double volume = 0.0;
        for (std::size_t i = 0; i < item.batch.size(); ++i) {
          const StreamEvent& ev = item.batch[i];
          try {
            if (!deliver_event(ev)) continue;
          } catch (...) {
            // The batch is already popped from the ring, so the events
            // behind the failing one can never be delivered or drained:
            // count them discarded to keep the per-kind identity exact.
            for (std::size_t j = i + 1; j < item.batch.size(); ++j) {
              telemetry.count_discarded(item.batch[j].kind());
            }
            telemetry.count_consumed_bulk(consumed, volume);
            throw;
          }
          ++consumed[static_cast<std::size_t>(ev.kind())];
          if (ev.kind() == EventKind::kSession) {
            volume += std::get<SessionEvent>(ev.payload).session.volume_mb;
          }
        }
        telemetry.count_consumed_bulk(consumed, volume);
        break;
      }
      case RingItem::Kind::kMinuteMark: {
        held[w] = 1;
        for (std::size_t k = 0; k < kNumEventKinds; ++k) {
          pending.totals[k] += item.shard_produced[k];
        }
        const std::vector<std::uint32_t>& bss = shards[w]->bss();
        for (std::size_t i = 0; i < item.day_volume.size(); ++i) {
          day_volumes[bss[i]] = item.day_volume[i];
        }
        std::vector<double>().swap(item.day_volume);
        if (++pending.workers < num_workers) break;
        // Every shard has crossed the mark: take the checkpoint.
        if (item.minute_end % kMinutesPerDay == 0) {
          // Day boundary: commit the finished day's volume as one per-day
          // sum over BSs in index order. A mid-day checkpoint carries only
          // the committed days' volume; a resume from it replays the day's
          // prefix, which regenerates the partial volumes.
          double day_total = 0.0;
          for (const double v : day_volumes) day_total += v;
          committed_volume += day_total;
        }
        result.checkpoint =
            make_checkpoint(item.minute_end, pending.totals, committed_volume);
        pending = PendingMark();
        if (checkpoint_callback_) {
          hook_calls.fetch_add(1, std::memory_order_release);
          struct HookExit {
            std::atomic<std::uint64_t>* calls;
            ~HookExit() { calls->fetch_add(1, std::memory_order_release); }
          } hook_exit{&hook_calls};
          checkpoint_callback_(result.checkpoint);
        }
        std::fill(held.begin(), held.end(), 0);
        break;
      }
    }
  };

  // One item for the whole run: each pop leaves the previous one's batch
  // buffer in the slot for the worker to reuse.
  RingItem item;
  try {
    for (;;) {
      if (stop.requested()) break;  // worker fault or watchdog stall
      fault_fire(config_.fault, "consumer.loop");
      // Read before the sweep: once every worker has exited, a sweep that
      // pops nothing proves the rings are drained (a held ring can still
      // hold items behind its mark until the last mark releases it).
      const bool workers_done = active.load(std::memory_order_acquire) == 0;
      bool any = false;
      for (std::size_t w = 0; w < num_workers; ++w) {
        while (held[w] == 0 && shards[w]->ring().try_pop(item)) {
          any = true;
          deliver(item, w);
          delivered_since_check += std::max<std::size_t>(1, item.batch.size());
          if (delivered_since_check >= 4096) {
            delivered_since_check = 0;
            maybe_snapshot();
          }
        }
      }
      if (!any) {
        if (workers_done) break;
        maybe_snapshot();
        std::this_thread::yield();
      }
    }
  } catch (...) {
    // Sink failure under kFailFast or a checkpoint-callback error.
    stop.signal(std::current_exception());
  }
  if (stop.requested()) {
    // Unblock producers (the pops wake a parked one; they check the flag
    // before parking and at every minute tick), draining without
    // delivering. Every drained data event is counted, so the per-kind
    // accounting identity stays exact on the failure path too.
    for (;;) {
      bool any = false;
      for (const auto& s : shards) {
        while (s->ring().try_pop(item)) {
          any = true;
          if (item.kind == RingItem::Kind::kBatch) {
            for (const StreamEvent& ev : item.batch) {
              telemetry.count_discarded(ev.kind());
            }
          }
        }
      }
      if (!any && active.load(std::memory_order_acquire) == 0) break;
      if (!any) std::this_thread::yield();
    }
  }
  engine_done.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  if (watchdog.joinable()) watchdog.join();

  if (stop.requested()) {
    // Events an aborted worker staged but never flushed were produced and
    // undelivered: count them discarded so the identity closes exactly.
    for (const auto& s : shards) {
      for (const StreamEvent& ev : s->pending()) {
        telemetry.count_discarded(ev.kind());
      }
    }
  }

  if (std::exception_ptr error = stop.first_error()) {
    // Final diagnostic snapshot before the failure propagates: the last
    // exact accounting of what was produced, delivered, shed, and
    // discarded.
    result.telemetry = telemetry.snapshot(0);
    if (snapshot_callback_) snapshot_callback_(result.telemetry);
    std::rethrow_exception(error);
  }

  result.telemetry = telemetry.snapshot(0);
  if (snapshot_callback_) snapshot_callback_(result.telemetry);
  return result;
}

}  // namespace mtd
