// Streaming replay: drive the measurement campaign through the sharded
// engine under Supervisor fault tolerance instead of the batch collector.
//
// Streams the scenario's trace through a supervised StreamEngine into an
// aggregating MeasurementDataset (optionally teeing every session to a CSV
// file through a FanOutSink; the tee must hold exactly the dataset's
// sessions or the binary exits 1), printing one telemetry JSON line per
// snapshot period. The Supervisor restarts from the last good in-memory
// checkpoint on retryable failures (worker faults, watchdog stalls,
// retryable sink errors) and its RunReport — attempts, failure causes,
// recovered day ranges — is printed at the end. When the scenario sets
// engine.stop_after_days, the run suspends at that day boundary and this
// binary resumes from the checkpoint to demonstrate stop/resume; the
// session stream stays bit-identical to an uninterrupted run in both
// cases.
//
// Run:  ./stream_replay [scenario.json] [trace.csv]
#include <iostream>
#include <memory>
#include <vector>

#include "engine/supervisor.hpp"
#include "events/event_sink.hpp"
#include "scenario/scenario.hpp"

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

  MeasurementDataset dataset(network, scenario.trace.num_days);
  TraceSinkAdapter to_dataset(network, dataset);
  std::unique_ptr<SessionCsvEventSink> csv;
  std::unique_ptr<FanOutSink> tee;
  EventSink* sink = &to_dataset;
  if (argc > 2) {
    csv = std::make_unique<SessionCsvEventSink>(network, argv[2]);
    tee = std::make_unique<FanOutSink>(
        std::vector<EventSink*>{&to_dataset, csv.get()},
        SinkErrorPolicy::kFailFast);
    sink = tee.get();
    std::cout << "Teeing sessions to " << argv[2] << "\n";
  }

  RunReport report = supervisor.run(*sink);
  while (report.succeeded && !report.result.checkpoint.complete()) {
    std::cout << "Suspended at day boundary "
              << report.result.checkpoint.next_day()
              << "; resuming from the checkpoint...\n";
    // A JSON round trip stands in for the checkpoint file a long-lived
    // replay would reload after a crash or migration.
    report = supervisor.resume(
        EngineCheckpoint::from_json(report.result.checkpoint.to_json()),
        *sink);
  }
  if (!report.succeeded) {
    std::cerr << "Supervised run FAILED after " << report.attempts.size()
              << " attempt(s): " << report.attempts.back().error << "\n";
    std::cerr << report.to_json().dump(2) << "\n";
    return 1;
  }
  dataset.finalize();
  if (csv) {
    csv->close();
    if (csv->writer().sessions_written() != dataset.total_sessions()) {
      std::cerr << "FATAL: the CSV tee holds "
                << csv->writer().sessions_written()
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
