// Dataset aggregation at national-scale BS counts: throughput and peak
// memory of the two paths that fill a MeasurementDataset.
//
// For each BS count (2,000 and 10,000; MTD_BENCH_FAST=1: 200 and 1,000) and
// each path a forked child builds the network (default NetworkConfig, seed
// 2023), aggregates one day and prints one JSON line:
//
//   {"bench":"scale","path":P,"bs":N,"days":1,"sessions":S,"wall_s":W,
//    "sessions_per_s":R,"peak_rss_mb":M,"hw_threads":T}
//
//   - path "collect_dataset": collect_dataset (per-BS parallel jobs);
//   - path "engine_dataset": StreamEngine (scalar kernel, 3 workers) into
//     the dataset through TraceSinkAdapter, then finalize(), so every cell
//     is held until the end of the run.
//
// peak_rss_mb is the child's VmHWM, so each row's peak is its own and
// includes the network and the finished dataset. wall_s covers the
// aggregation only.
//
//   build/bench/bench_scale
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "events/event_sink.hpp"
#include "io/json.hpp"

namespace {

using namespace mtd;

/// Peak resident set of this process (VmHWM), MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

MeasurementDataset aggregate(const std::string& path, const Network& network,
                             const TraceConfig& trace) {
  if (path == "collect_dataset") return collect_dataset(network, trace);
  EngineConfig config;
  config.num_workers = 3;
  StreamEngine engine(network, trace, config);
  MeasurementDataset dataset(network, trace.num_days);
  TraceSinkAdapter adapter(network, dataset);
  (void)engine.run(adapter);
  dataset.finalize();
  return dataset;
}

/// One row, measured in the calling process.
Json scale_row(const std::string& path, std::size_t num_bs) {
  NetworkConfig config;
  config.num_bs = num_bs;
  Rng rng(2023);
  const Network network = Network::build(config, rng);
  TraceConfig trace;
  trace.num_days = 1;
  trace.seed = 20231024;

  const auto start = std::chrono::steady_clock::now();
  const MeasurementDataset dataset = aggregate(path, network, trace);
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();

  JsonObject row;
  row.emplace("bench", "scale");
  row.emplace("path", path);
  row.emplace("bs", static_cast<double>(num_bs));
  row.emplace("days", static_cast<double>(trace.num_days));
  row.emplace("sessions", static_cast<double>(dataset.total_sessions()));
  row.emplace("wall_s", wall_s);
  row.emplace("sessions_per_s",
              static_cast<double>(dataset.total_sessions()) / wall_s);
  row.emplace("peak_rss_mb", peak_rss_mb());
  row.emplace("hw_threads",
              static_cast<double>(std::thread::hardware_concurrency()));
  return Json(std::move(row));
}

}  // namespace

int main() {
  const std::vector<std::size_t> counts =
      bench::fast_mode() ? std::vector<std::size_t>{200, 1000}
                         : std::vector<std::size_t>{2000, 10000};
  for (const std::size_t num_bs : counts) {
    for (const char* path : {"collect_dataset", "engine_dataset"}) {
      std::cout.flush();
      const pid_t child = fork();
      if (child < 0) {
        std::perror("fork");
        return 1;
      }
      if (child == 0) {
        std::cout << scale_row(path, num_bs).dump() << std::endl;
        std::_Exit(0);
      }
      int status = 0;
      if (waitpid(child, &status, 0) != child || !WIFEXITED(status) ||
          WEXITSTATUS(status) != 0) {
        std::cerr << "bench_scale: the " << path << " row at " << num_bs
                  << " BSs failed\n";
        return 1;
      }
    }
  }
  return 0;
}
