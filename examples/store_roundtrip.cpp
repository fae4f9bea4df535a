// Trace store end to end: an engine run streamed into the persistent
// indexed store, closed, reopened, queried and replayed.
//
// The pipeline (DESIGN.md section 12):
//
//   StreamEngine ── TraceStoreWriter   mtd_trace.store{,.pages}
//                   (one committed B-tree segment per simulated day,
//                    durable: pages appended and synced, then one
//                    manifest record appended and synced)
//
// then, from a fresh TraceStore reader over the same files:
//   - verify(): every page's checksum and every segment's event count,
//   - a single-BS point lookup and a (bs, day-range) scan, printing the
//     read telemetry that shows fences and bloom filters pruning pages,
//   - replay() of the whole store into a MeasurementDataset, compared
//     bit-exactly against the same trace aggregated directly — the store
//     preserves per-(BS, day) event order, so the aggregates match to the
//     last bit.
//
// Run:  ./store_roundtrip [num_bs] [num_days]
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "dataset/measurement.hpp"
#include "engine/engine.hpp"
#include "engine/store_runner.hpp"
#include "events/event_sink.hpp"
#include "store/trace_store.hpp"

int main(int argc, char** argv) {
  using namespace mtd;

  NetworkConfig net_config;
  net_config.num_bs = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 16;
  TraceConfig trace;
  trace.num_days = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 3;
  trace.seed = 20231024;
  trace.rate_scale = 0.05;
  Rng rng(trace.seed);
  const Network network = Network::build(net_config, rng);

  // Ingest: one store segment per completed day.
  const std::string store_path = "mtd_trace.store";
  {
    store::TraceStoreWriter writer = store::TraceStoreWriter::create(
        store_path, store::StoreOptions{.page_size = 4096});
    StreamEngine engine(network, trace);
    const EngineResult result = run_engine_into_store(engine, writer);
    writer.close();
    std::cout << "ingested " << writer.events_committed() << " events ("
              << result.checkpoint.sessions_emitted << " sessions) into "
              << store_path << "\n";
  }

  // Query: a fresh reader over the committed files.
  store::TraceStore reader(store_path);
  const store::StoreVerifyReport report = reader.verify();
  std::cout << "verify: " << report.pages << " pages, " << report.events
            << " events across " << report.segments << " segment(s)\n";

  reader.reset_telemetry();
  const std::uint32_t probe_bs = network.base_stations().front().id;
  std::uint64_t scanned = 0;
  scanned = reader.scan(probe_bs, 0,
                        static_cast<std::uint16_t>(trace.num_days - 1),
                        [](const StreamEvent&) {});
  const store::StoreReadTelemetry& t = reader.telemetry();
  std::cout << "scan bs=" << probe_bs << ": " << scanned << " events, "
            << t.pages_read << " pages read, " << t.leaves_skipped_fence
            << " leaves skipped by fences, " << t.leaves_skipped_bloom
            << " by blooms\n";

  // Replay-from-store parity: aggregates must match direct generation
  // bit-exactly.
  MeasurementDataset from_store(network, trace.num_days);
  TraceSinkAdapter adapter(network, from_store);
  const std::uint64_t replayed = reader.replay(adapter);
  from_store.finalize();

  MeasurementDataset direct = collect_dataset(network, trace);
  std::cout << "replayed " << replayed << " events; total volume "
            << from_store.total_volume_mb() << " MB (direct "
            << direct.total_volume_mb() << " MB)\n";
  if (from_store.total_sessions() != direct.total_sessions() ||
      from_store.total_volume_mb() != direct.total_volume_mb()) {
    std::cerr << "FATAL: replay-from-store diverged from direct generation\n";
    return 1;
  }
  std::cout << "replay-from-store aggregates are bit-identical\n";
  return 0;
}
