// Streaming replay: drive the measurement campaign through the sharded
// engine under Supervisor fault tolerance instead of the batch collector.
//
// Streams the scenario's trace through a supervised StreamEngine into the
// trace store mtd_stream_replay.store{,.pages}, printing one telemetry JSON
// line per snapshot period, then aggregates the store into a
// MeasurementDataset through dataset_from_source. Every attempt of
// Supervisor::run_into_store reopens the store and resumes from the
// checkpoint its manifest carries, so a retryable failure (worker fault,
// watchdog stall, store commit error) costs only the uncommitted tail; its
// RunReport — attempts, failure causes, minute ranges — is printed at the
// end. When the scenario sets engine.stop_after_days, each run suspends at
// that day boundary and the binary runs again until the store's checkpoint
// is complete; the stored stream is bit-identical to an uninterrupted
// run's. With a second argument the store is also replayed into a session
// CSV, which must hold exactly the dataset's sessions or the binary exits 1.
//
// Run:  ./stream_replay [scenario.json] [trace.csv]
#include <iostream>
#include <string>

#include "engine/supervisor.hpp"
#include "events/event_sink.hpp"
#include "events/session_source.hpp"
#include "scenario/scenario.hpp"
#include "store/store_session_source.hpp"
#include "store/trace_store.hpp"

int main(int argc, char** argv) {
  using namespace mtd;

  Scenario scenario;
  // Template sized to stream in a few seconds at max throughput.
  scenario.network.num_bs = 40;
  scenario.trace.num_days = 3;
  scenario.engine.num_workers = 0;  // auto: one per hardware thread
  scenario.engine.telemetry_period_s = 1.0;
  scenario.engine.watchdog_timeout_s = 30.0;

  if (argc > 1) {
    std::cout << "Loading scenario from " << argv[1] << "\n";
    scenario = Scenario::load(argv[1]);
  } else {
    const std::string path = "mtd_stream_scenario.json";
    scenario.save(path);
    std::cout << "No scenario given - wrote the default template to " << path
              << " and running it.\n";
  }

  Rng rng(scenario.trace.seed);
  const Network network = Network::build(scenario.network, rng);
  Supervisor supervisor(network, scenario.trace, scenario.engine);
  std::cout << "Streaming " << network.size() << " BSs x "
            << scenario.trace.num_days << " days ("
            << to_string(scenario.engine.backpressure) << " backpressure, "
            << to_string(scenario.engine.sink_error_policy)
            << " sink errors, "
            << (scenario.engine.time_scale > 0.0 ? "scaled real time"
                                                 : "max throughput")
            << ", up to " << supervisor.config().max_restarts
            << " restarts)\n";
  supervisor.on_snapshot([](const TelemetrySnapshot& snap) {
    std::cout << snap.to_json().dump() << "\n";
  });

  const std::string store_path = "mtd_stream_replay.store";
  store::TraceStoreWriter::create(store_path).close();
  RunReport report = supervisor.run_into_store(store_path);
  while (report.succeeded && !report.result.checkpoint.complete()) {
    std::cout << "Suspended at day boundary "
              << report.result.checkpoint.next_day()
              << "; resuming from the store's checkpoint...\n";
    report = supervisor.run_into_store(store_path);
  }
  if (!report.succeeded) {
    std::cerr << "Supervised run FAILED after " << report.attempts.size()
              << " attempt(s): " << report.attempts.back().error << "\n";
    std::cerr << report.to_json().dump(2) << "\n";
    return 1;
  }

  store::TraceStore reader(store_path);
  store::StoreSessionSource source(reader);
  const MeasurementDataset dataset =
      dataset_from_source(source, network, scenario.trace.num_days);
  if (argc > 2) {
    SessionCsvEventSink csv(network, argv[2]);
    (void)reader.replay(csv);
    csv.close();
    std::cout << "Replayed the store's sessions to " << argv[2] << "\n";
    if (csv.writer().sessions_written() != dataset.total_sessions()) {
      std::cerr << "FATAL: the CSV holds " << csv.writer().sessions_written()
                << " sessions, the dataset " << dataset.total_sessions()
                << "\n";
      return 1;
    }
  }

  std::cout << "\nRun report: " << report.to_json().dump() << "\n";
  std::cout << "Dataset: " << dataset.total_sessions() << " sessions, "
            << dataset.total_volume_mb() / 1e3 << " GB across "
            << dataset.num_services() << " services\n";
  return 0;
}
