// Dataset aggregation at national-scale BS counts: throughput and peak
// memory of the two paths that fill a MeasurementDataset.
//
// Each row runs in its own forked child, which builds the network (default
// NetworkConfig, seed 2023), aggregates one day and prints one JSON line:
//
//   {"bench":"scale","path":P,"bs":N,"days":1,"sessions":S,"wall_s":W,
//    "sessions_per_s":R,"peak_rss_mb":M,"hw_threads":T}
//
//   - path "collect_dataset", at 2,000 and 10,000 BSs (MTD_BENCH_FAST=1:
//     200 and 1,000): collect_dataset (per-cell parallel jobs);
//   - path "source_dataset", at 200 and 2,000 BSs in both modes:
//     dataset_from_source over a StoreSessionSource. A separate child first
//     writes the store with run_engine_into_store (StreamEngine, scalar
//     kernel, 3 workers, hourly commits) into the temporary directory, and
//     the store is deleted after the row. The dataset folds one (BS, day)
//     cell at a time, so this row's peak should not grow with the BS count.
//     A store takes about 43-47 B per session (1.6 GB measured at 2,000
//     BSs), so about 9 GB at 10,000, which is why the row stops at 2,000.
//
// peak_rss_mb is the row child's VmHWM, so each row's peak is its own and
// includes the network and the finished dataset (for "source_dataset" the
// read side only). wall_s covers the aggregation only.
//
//   build/bench/bench_scale
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "engine/store_runner.hpp"
#include "events/session_source.hpp"
#include "io/json.hpp"
#include "store/store_session_source.hpp"
#include "store/trace_store.hpp"

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

Network scale_network(std::size_t num_bs) {
  NetworkConfig config;
  config.num_bs = num_bs;
  Rng rng(2023);
  return Network::build(config, rng);
}

TraceConfig scale_trace() {
  TraceConfig trace;
  trace.num_days = 1;
  trace.seed = 20231024;
  return trace;
}

/// Streams the trace through the engine into a new store at `path`.
void write_store(const std::string& path, std::size_t num_bs) {
  const Network network = scale_network(num_bs);
  EngineConfig config;
  config.num_workers = 3;
  // The writer holds every event until its commit: with day-boundary
  // commits alone it would peak near 4.8 GB at 2,000 BSs, hourly near 0.4.
  config.checkpoint_interval_minutes = 60;
  StreamEngine engine(network, scale_trace(), config);
  store::TraceStoreWriter writer = store::TraceStoreWriter::create(path);
  (void)run_engine_into_store(engine, writer);
  writer.close();
}

/// One row, measured in the calling process. `store_path` is the store the
/// "source_dataset" row reads.
Json scale_row(const std::string& path, std::size_t num_bs,
               const std::string& store_path) {
  const Network network = scale_network(num_bs);
  const TraceConfig trace = scale_trace();

  const auto start = std::chrono::steady_clock::now();
  const MeasurementDataset dataset = [&] {
    if (path == "collect_dataset") return collect_dataset(network, trace);
    store::TraceStore reader(store_path);
    store::StoreSessionSource source(reader);
    return dataset_from_source(source, network, trace.num_days);
  }();
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

/// Runs `body` in a forked child; false when the child fails.
bool in_child(const std::function<void()>& body) {
  std::cout.flush();
  const pid_t child = fork();
  if (child < 0) {
    std::perror("fork");
    return false;
  }
  if (child == 0) {
    body();
    std::_Exit(0);
  }
  int status = 0;
  return waitpid(child, &status, 0) == child && WIFEXITED(status) &&
         WEXITSTATUS(status) == 0;
}

}  // namespace

int main() {
  const std::vector<std::size_t> counts =
      bench::fast_mode() ? std::vector<std::size_t>{200, 1000}
                         : std::vector<std::size_t>{2000, 10000};
  for (const std::size_t num_bs : counts) {
    if (!in_child([&] {
          std::cout << scale_row("collect_dataset", num_bs, "").dump()
                    << std::endl;
        })) {
      std::cerr << "bench_scale: the collect_dataset row at " << num_bs
                << " BSs failed\n";
      return 1;
    }
  }

  const std::string store_path =
      (std::filesystem::temp_directory_path() /
       ("mtd_bench_scale_" + std::to_string(getpid()) + ".store"))
          .string();
  for (const std::size_t num_bs : {std::size_t{200}, std::size_t{2000}}) {
    const bool ok =
        in_child([&] { write_store(store_path, num_bs); }) &&
        in_child([&] {
          std::cout << scale_row("source_dataset", num_bs, store_path).dump()
                    << std::endl;
        });
    std::filesystem::remove(store_path);
    std::filesystem::remove(store_path + ".pages");
    if (!ok) {
      std::cerr << "bench_scale: the source_dataset row at " << num_bs
                << " BSs failed\n";
      return 1;
    }
  }
  return 0;
}
