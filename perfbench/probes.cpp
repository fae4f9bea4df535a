// Layer probes of traced runs: each times one layer in isolation on small
// inputs drawn from the run's seed.
#include <algorithm>
#include <filesystem>

#include "dataset/generator.hpp"
#include "engine/engine.hpp"
#include "events/session_source.hpp"
#include "store/trace_store.hpp"
#include "workloads.hpp"

namespace mtd::perfbench {
namespace {

constexpr std::uint64_t kProbeNetworkSalt = 11;
constexpr std::uint64_t kProbeTraceSalt = 12;
constexpr std::uint64_t kProbeCellSalt = 13;
constexpr std::size_t kRepeats = 3;

Network probe_network(const RunContext& ctx, std::size_t num_bs) {
  NetworkConfig config;
  config.num_bs = num_bs;
  Rng rng(derive_seed(ctx.seed, kProbeNetworkSalt));
  return Network::build(config, rng);
}

TraceConfig probe_trace(const RunContext& ctx, std::size_t num_days) {
  TraceConfig trace;
  trace.num_days = num_days;
  trace.seed = derive_seed(ctx.seed, kProbeTraceSalt);
  return trace;
}

EngineConfig probe_engine(std::size_t workers) {
  EngineConfig config;
  config.num_workers = workers;
  config.kernel = GeneratorKernel::kBatch;
  return config;
}

struct NullTraceSink final : TraceSink {
  std::uint64_t sessions = 0;
  void on_minute(const BaseStation&, std::size_t, std::size_t,
                 std::uint32_t) override {}
  void on_session(const Session&) override { ++sessions; }
};

struct CountingSink final : EventSink {
  std::uint64_t sessions = 0;
  void on_event(const StreamEvent& event) override {
    if (event.kind() == EventKind::kSession) ++sessions;
  }
};

/// The two generation kernels on one thread over the sampled cells:
/// kBatch through sample_minute_block, kScalar through run_bs_day.
void probe_kernels(const RunContext& ctx, Tracer& tracer, Metrics& out) {
  SpanScope span(&tracer, "probe.kernels");
  const Network network = probe_network(ctx, 12);
  const TraceConfig trace = probe_trace(ctx, 2);
  const TraceGenerator generator(network, trace);
  const std::vector<Cell> cells = sample_cells(
      derive_seed(ctx.seed, kProbeCellSalt), 16, network.size(),
      trace.num_days);

  std::vector<double> batch_ns;
  std::vector<double> scalar_ns;
  MinuteBlock block;
  for (std::size_t r = 0; r < kRepeats; ++r) {
    {
      SpanScope s(&tracer, "dataset.sample_minute_block");
      std::uint64_t sessions = 0;
      const auto start = Clock::now();
      for (const Cell& cell : cells) {
        const BaseStation scaled =
            generator.day_scaled(network[cell.bs], cell.day);
        for (std::size_t minute = 0; minute < kMinutesPerDay; ++minute) {
          generator.sample_minute_block(scaled, cell.day, minute, block);
          sessions += block.count;
        }
      }
      batch_ns.push_back(1e9 * seconds_since(start) /
                         static_cast<double>(sessions));
    }
    {
      SpanScope s(&tracer, "dataset.run_bs_day_scalar");
      NullTraceSink sink;
      const auto start = Clock::now();
      for (const Cell& cell : cells) {
        generator.run_bs_day(network[cell.bs], cell.day, sink,
                             GeneratorKernel::kScalar);
      }
      scalar_ns.push_back(1e9 * seconds_since(start) /
                          static_cast<double>(sink.sessions));
    }
  }
  out.set("dataset.batch_kernel_ns_per_session", median(batch_ns), "ns");
  out.set("dataset.scalar_kernel_ns_per_session", median(scalar_ns), "ns");
}

/// The engine into a counting sink at 1 and at 3 workers.
void probe_engine_scaling(const RunContext& ctx, Tracer& tracer,
                          Metrics& out) {
  SpanScope span(&tracer, "probe.engine");
  const Network network = probe_network(ctx, 12);
  const TraceConfig trace = probe_trace(ctx, 1);
  std::vector<double> one;
  std::vector<double> three;
  for (std::size_t r = 0; r < kRepeats; ++r) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
      SpanScope s(&tracer, "engine.run");
      StreamEngine engine(network, trace, probe_engine(workers));
      CountingSink sink;
      const auto start = Clock::now();
      static_cast<void>(engine.run(sink));
      const double rate =
          static_cast<double>(sink.sessions) / seconds_since(start);
      (workers == 1 ? one : three).push_back(rate);
    }
  }
  out.set("engine.sessions_per_s_1w", median(one), "sessions/s");
  out.set("engine.null_sink_sessions_per_s", median(three), "sessions/s");
  out.set("engine.scaling_3w", median(three) / median(one), "ratio");
}

/// Seconds per event of replaying `events` into a fresh writer and
/// closing it.
template <typename Writer>
double encode_ns_per_event(const std::vector<StreamEvent>& events,
                           Tracer& tracer, const char* name) {
  std::vector<double> ns;
  for (std::size_t r = 0; r < kRepeats; ++r) {
    SpanScope s(&tracer, name);
    const auto start = Clock::now();
    Writer writer("/dev/null");
    for (const StreamEvent& event : events) writer.on_event(event);
    writer.close();
    ns.push_back(1e9 * seconds_since(start) /
                 static_cast<double>(events.size()));
  }
  return median(ns);
}

/// TraceStoreWriter over the captured stream: on_event per event, a
/// commit every 60 simulated minutes, one compaction at the end.
void probe_store_write(const RunContext& ctx,
                       const std::vector<StreamEvent>& events, Tracer& tracer,
                       Metrics& out) {
  SpanScope span(&tracer, "probe.store_write");
  const std::string path = ctx.work_dir + "/probe.store";
  store::TraceStoreWriter writer = store::TraceStoreWriter::create(path);
  TimedEventSink appends(writer);
  std::vector<double> commit_s;
  const auto commit = [&] {
    SpanScope s(&tracer, "store.commit");
    const auto start = Clock::now();
    writer.commit();
    commit_s.push_back(seconds_since(start));
  };
  std::uint64_t next_commit_minute = 60;
  for (const StreamEvent& event : events) {
    if (event.key.clock_minute() >= next_commit_minute) {
      commit();
      next_commit_minute += 60;
    }
    appends.on_event(event);
  }
  commit();

  double compact_s = 0.0;
  double compact_heap_mb = 0.0;
  {
    SpanScope s(&tracer, "store.compact");
    HeapSampler heap;
    const auto start = Clock::now();
    static_cast<void>(writer.compact());
    compact_s = seconds_since(start);
    compact_heap_mb = heap.stop();
  }
  writer.close();
  const store::StoreManifest& manifest = writer.manifest();
  const double live_bytes =
      static_cast<double>(manifest.committed_pages - manifest.dead_pages) *
      static_cast<double>(manifest.options.page_size);

  out.set("store.append_ns_per_event",
          1e9 * appends.busy_s() / static_cast<double>(appends.events()),
          "ns");
  out.set("store.commit_ms_p50", 1e3 * median(commit_s), "ms");
  out.set("store.commit_ms_tail", 1e3 * tail_of(commit_s), "ms");
  out.set("store.commits", static_cast<double>(commit_s.size()), "count");
  out.set("store.compact_s", compact_s, "s");
  out.set("store.compact_heap_mb", compact_heap_mb, "MB");
  out.set("store.bytes_per_event",
          live_bytes / static_cast<double>(manifest.events), "B");
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
  std::filesystem::remove(path + ".pages", ignored);
}

}  // namespace

void run_layer_probes(const RunContext& ctx, Tracer& tracer, Metrics& out) {
  probe_kernels(ctx, tracer, out);
  probe_engine_scaling(ctx, tracer, out);

  // One captured stream feeds the encoder and store probes: the engine's
  // delivery order, regrouped by simulated minute so each hourly commit
  // seals whole minutes as the store runner's checkpoints do.
  std::vector<StreamEvent> events;
  {
    SpanScope span(&tracer, "probe.capture");
    const Network network = probe_network(ctx, 12);
    StreamEngine engine(network, probe_trace(ctx, 2), probe_engine(3));
    MemorySessionSource::Collector collector;
    static_cast<void>(engine.run(collector));
    events = std::move(collector).take();
    std::stable_sort(events.begin(), events.end(),
                     [](const StreamEvent& a, const StreamEvent& b) {
                       return a.key.clock_minute() < b.key.clock_minute();
                     });
  }
  out.set("events.binary_encode_ns_per_event",
          encode_ns_per_event<BinaryEventWriter>(events, tracer,
                                                 "events.binary_encode"),
          "ns");
  out.set("events.ndjson_encode_ns_per_event",
          encode_ns_per_event<NdjsonEventWriter>(events, tracer,
                                                 "events.ndjson_encode"),
          "ns");
  probe_store_write(ctx, events, tracer, out);
}

}  // namespace mtd::perfbench
