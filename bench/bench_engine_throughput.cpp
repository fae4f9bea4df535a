// Streaming-engine throughput: sessions/s by worker count and batch size.
//
// Streams the bench network through StreamEngine in max-throughput mode at
// 1, 2, 4 and 8 workers into a minimal counting sink, and prints one JSON
// line per worker count (schema: bench, workers, sessions, wall_s,
// sessions_per_s, mbytes_per_s, dropped, stall_s) so CI can track the
// scaling curve. Under the blocking backpressure policy the drop counters
// must be zero and every worker count must deliver the identical session
// count — both are asserted here. Speedup over one worker is reported
// relative to the measured single-worker rate; on a single-core host the
// curve is flat (the engine cannot conjure parallelism the hardware does
// not have), which the "hw_threads" field makes explicit.
//
// A second sweep varies EngineConfig::batch_size (1/16/64/256) at a fixed
// worker count to measure the cost of per-event ring traffic vs batched
// transfers, and a third compares the scalar and SoA batch generator
// kernels end to end (kernel_sweep below; ratcheted by check_bench.sh).
// All sweeps are written to BENCH_engine.json (machine-readable; schemas
// documented per sweep) for CI trend tracking.
//
// google-benchmark timings of the SPSC ring primitive follow the JSON
// lines.
#include <cstdlib>
#include <iostream>
#include <thread>

#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "common/fault.hpp"
#include "engine/spsc_ring.hpp"
#include "io/json.hpp"

namespace {

using namespace mtd;

/// Counts deliveries; deliberately near-zero per-event work so the bench
/// measures engine overhead, not sink cost.
struct CountingSink final : EventSink {
  std::uint64_t minutes = 0;
  std::uint64_t sessions = 0;
  double volume_mb = 0.0;

  void on_event(const StreamEvent& event) override {
    if (const auto* s = std::get_if<SessionEvent>(&event.payload)) {
      ++sessions;
      volume_mb += s->session.volume_mb;
    } else if (event.kind() == EventKind::kMinute) {
      ++minutes;
    }
  }
};

/// Minute and session events shed by backpressure.
std::uint64_t dropped(const TelemetrySnapshot& t) {
  return t.of(EventKind::kMinute).dropped + t.of(EventKind::kSession).dropped;
}

JsonArray throughput_sweep();
JsonArray batch_sweep();
JsonArray kernel_sweep();

JsonArray throughput_sweep() {
  JsonArray rows;
  TraceConfig trace;
  trace.num_days = mtd::bench::fast_mode() ? 1 : 3;
  trace.seed = 20231024;
  const Network& network = mtd::bench::bench_network();

  std::uint64_t reference_sessions = 0;
  double reference_rate = 0.0;
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    EngineConfig config;
    config.num_workers = workers;
    config.backpressure = BackpressurePolicy::kBlock;

    StreamEngine engine(network, trace, config);
    CountingSink sink;
    const EngineResult result = engine.run(sink);
    const TelemetrySnapshot& t = result.telemetry;

    if (workers == 1) {
      reference_sessions = sink.sessions;
      reference_rate = t.sessions_per_second;
    } else if (sink.sessions != reference_sessions) {
      std::cerr << "FATAL: session count diverged at " << workers
                << " workers\n";
      std::exit(1);
    }
    if (dropped(t) != 0) {
      std::cerr << "FATAL: blocking backpressure dropped events\n";
      std::exit(1);
    }

    JsonObject row;
    row.emplace("bench", "engine_throughput");
    row.emplace("workers", workers);
    row.emplace("hw_threads",
                static_cast<double>(std::thread::hardware_concurrency()));
    row.emplace("sessions", static_cast<double>(sink.sessions));
    row.emplace("wall_s", t.wall_seconds);
    row.emplace("sessions_per_s", t.sessions_per_second);
    row.emplace("mbytes_per_s", t.mbytes_per_second);
    row.emplace("dropped", static_cast<double>(dropped(t)));
    row.emplace("stall_s", t.producer_stall_seconds);
    row.emplace("speedup_vs_1", reference_rate > 0.0
                                    ? t.sessions_per_second / reference_rate
                                    : 1.0);
    Json json(std::move(row));
    std::cout << json.dump() << "\n";
    rows.push_back(std::move(json));
  }
  return rows;
}

/// Batch-size sweep at a fixed worker count: how much does amortizing ring
/// traffic over EventBatch transfers buy? Row schema: bench, batch_size,
/// workers, sessions, events, wall_s, sessions_per_s, events_per_s,
/// speedup_vs_batch1. batch_size=1 degenerates to one ring item per event
/// (the pre-batching data plane); the identical session count across batch
/// sizes is asserted.
JsonArray batch_sweep() {
  JsonArray rows;
  TraceConfig trace;
  trace.num_days = mtd::bench::fast_mode() ? 1 : 3;
  trace.seed = 20231024;
  const Network& network = mtd::bench::bench_network();

  std::uint64_t reference_sessions = 0;
  double reference_rate = 0.0;
  for (std::size_t batch : {1u, 16u, 64u, 256u}) {
    EngineConfig config;
    config.num_workers = 2;
    config.batch_size = batch;
    config.backpressure = BackpressurePolicy::kBlock;

    StreamEngine engine(network, trace, config);
    CountingSink sink;
    const EngineResult result = engine.run(sink);
    const TelemetrySnapshot& t = result.telemetry;

    if (batch == 1) {
      reference_sessions = sink.sessions;
      reference_rate = t.sessions_per_second;
    } else if (sink.sessions != reference_sessions) {
      std::cerr << "FATAL: session count diverged at batch_size " << batch
                << "\n";
      std::exit(1);
    }

    std::uint64_t events = 0;
    for (const auto& kind : t.kinds) events += kind.consumed;

    JsonObject row;
    row.emplace("bench", "engine_batch");
    row.emplace("batch_size", static_cast<double>(batch));
    row.emplace("workers", static_cast<double>(config.num_workers));
    row.emplace("sessions", static_cast<double>(sink.sessions));
    row.emplace("events", static_cast<double>(events));
    row.emplace("wall_s", t.wall_seconds);
    row.emplace("sessions_per_s", t.sessions_per_second);
    row.emplace("events_per_s", t.events_per_second);
    row.emplace("speedup_vs_batch1",
                reference_rate > 0.0 ? t.sessions_per_second / reference_rate
                                     : 1.0);
    Json json(std::move(row));
    std::cout << json.dump() << "\n";
    rows.push_back(std::move(json));
  }
  return rows;
}

/// Generator-kernel sweep: the scalar reference path vs the SoA batch
/// kernels (DESIGN.md sec. 16) end to end through the engine, each at the
/// worker counts that matter on this host. Row schema: bench, kernel,
/// workers, sessions, wall_s, sessions_per_s, mbytes_per_s, dropped,
/// speedup_vs_scalar (per worker count, batch rate / scalar rate). The two
/// kernels draw different streams, so session counts differ slightly
/// between them — but within a kernel they must be worker-count invariant,
/// which is asserted. scripts/check_bench.sh ratchets the batch
/// sessions_per_s of this section against the committed baseline.
JsonArray kernel_sweep() {
  JsonArray rows;
  TraceConfig trace;
  trace.num_days = mtd::bench::fast_mode() ? 1 : 3;
  trace.seed = 20231024;
  const Network& network = mtd::bench::bench_network();

  std::uint64_t reference[2] = {0, 0};  // per-kernel 1-worker session count
  for (std::size_t workers : {1u, 2u}) {
    double scalar_rate = 0.0;
    for (const GeneratorKernel kernel :
         {GeneratorKernel::kScalar, GeneratorKernel::kBatch}) {
      EngineConfig config;
      config.num_workers = workers;
      config.backpressure = BackpressurePolicy::kBlock;
      config.kernel = kernel;

      StreamEngine engine(network, trace, config);
      CountingSink sink;
      const EngineResult result = engine.run(sink);
      const TelemetrySnapshot& t = result.telemetry;

      // Worker-count invariance within a kernel: remember the 1-worker
      // count on the first pass, compare on later ones.
      const std::size_t k = static_cast<std::size_t>(kernel);
      if (workers == 1) {
        reference[k] = sink.sessions;
      } else if (sink.sessions != reference[k]) {
        std::cerr << "FATAL: " << to_string(kernel)
                  << " session count diverged at " << workers << " workers\n";
        std::exit(1);
      }
      if (dropped(t) != 0) {
        std::cerr << "FATAL: blocking backpressure dropped events\n";
        std::exit(1);
      }

      if (kernel == GeneratorKernel::kScalar) {
        scalar_rate = t.sessions_per_second;
      }

      JsonObject row;
      row.emplace("bench", "engine_kernel");
      row.emplace("kernel", std::string(to_string(kernel)));
      row.emplace("workers", static_cast<double>(workers));
      row.emplace("sessions", static_cast<double>(sink.sessions));
      row.emplace("wall_s", t.wall_seconds);
      row.emplace("sessions_per_s", t.sessions_per_second);
      row.emplace("mbytes_per_s", t.mbytes_per_second);
      row.emplace("dropped", static_cast<double>(dropped(t)));
      row.emplace("speedup_vs_scalar",
                  scalar_rate > 0.0 ? t.sessions_per_second / scalar_rate
                                    : 1.0);
      Json json(std::move(row));
      std::cout << json.dump() << "\n";
      rows.push_back(std::move(json));
    }
  }
  return rows;
}

void BM_SpscRingPushPop(benchmark::State& state) {
  SpscRing<std::uint64_t> ring(1024);
  std::uint64_t i = 0;
  std::uint64_t out = 0;
  for (auto _ : state) {
    // Single-threaded steady state: each iteration moves one value through.
    std::uint64_t value = i;
    benchmark::DoNotOptimize(ring.try_push(value));
    benchmark::DoNotOptimize(ring.try_pop(out));
    ++i;
  }
}
BENCHMARK(BM_SpscRingPushPop);

void BM_EngineMaxThroughput(benchmark::State& state) {
  TraceConfig trace;
  trace.num_days = 1;
  trace.seed = 7;
  EngineConfig config;
  config.num_workers = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    StreamEngine engine(mtd::bench::bench_network(), trace, config);
    CountingSink sink;
    const EngineResult result = engine.run(sink);
    state.counters["sessions_per_s"] = result.telemetry.sessions_per_second;
  }
}
BENCHMARK(BM_EngineMaxThroughput)->Arg(1)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond);

// Cost of the fault-tolerance layer on the hot path: the fault-injection
// hooks compiled into workers, consumer, and sink adapters are a null-check
// when no injector is armed (arg 0); with an injector present but every
// point disarmed (arg 1) each hook adds a mutex-guarded map lookup. The
// delta between the two rows is the price of leaving injection compiled in.
void BM_EngineFaultHookOverhead(benchmark::State& state) {
  TraceConfig trace;
  trace.num_days = 1;
  trace.seed = 7;
  FaultInjector idle_injector;
  EngineConfig config;
  config.num_workers = 2;
  config.sink_error_policy = SinkErrorPolicy::kDegrade;
  if (state.range(0) == 1) config.fault = &idle_injector;
  for (auto _ : state) {
    StreamEngine engine(mtd::bench::bench_network(), trace, config);
    CountingSink sink;
    const EngineResult result = engine.run(sink);
    state.counters["sessions_per_s"] = result.telemetry.sessions_per_second;
  }
}
BENCHMARK(BM_EngineFaultHookOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  mtd::JsonObject report;
  report.emplace("bench", "engine_throughput");
  report.emplace(
      "hw_threads",
      static_cast<double>(std::thread::hardware_concurrency()));
  report.emplace("worker_sweep", mtd::Json(throughput_sweep()));
  report.emplace("batch_sweep", mtd::Json(batch_sweep()));
  report.emplace("kernel_sweep", mtd::Json(kernel_sweep()));
  mtd::write_file("BENCH_engine.json", mtd::Json(std::move(report)).dump());
  std::cerr << "[bench] wrote BENCH_engine.json\n";
  return mtd::bench::run_benchmarks(argc, argv);
}
