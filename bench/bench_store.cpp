// Trace-store benchmarks: ingest rate, query latency, and index pruning.
//
// One engine run is streamed into a fresh on-disk store (one committed
// B-tree segment per simulated day), then a reader is measured over it:
//
//   ingest        events/s through TraceStoreWriter commits
//   scan          single-BS day-range scan: pages read and leaves pruned
//                 by fences
//   replay        full-store key-order replay into a counting sink
//   compaction    a 45-segment synthetic store (one segment per simulated
//                 day, 5 in fast mode) merged into one: wall time plus
//                 index pages and single-BS scan pages before vs after
//   compaction_48 an engine store committed hourly for two days (48
//                 segments) merged into one: the wall time of that hourly
//                 ingest, and the merge's wall time and the peak growth of
//                 the live heap while it runs
//
// The pruning claim of the index is asserted, not just reported: the
// single-BS scan must read strictly fewer pages than the full replay, and
// the replayed event count must equal the ingested one. Likewise the
// compaction claim: merging per-day segments must shrink the index
// (fence) page count and must not make the pruned scan read more
// pages. The report goes to BENCH_store.json (schema: {bench: "store",
// fast, ingest: {...}, scan: {...}, replay: {...},
// compaction: {...}, compaction_48: {...}}) for CI trend tracking. Every
// store lives in a private mkdtemp directory removed at exit.
// MTD_BENCH_FAST shrinks the scenario for smoke runs.
#include <malloc.h>
#include <stdlib.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "engine/store_runner.hpp"
#include "io/json.hpp"
#include "store/trace_store.hpp"

namespace {

using namespace mtd;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct CountingSink final : EventSink {
  std::uint64_t events = 0;
  void on_event(const StreamEvent&) override { ++events; }
};

/// The private directory every store of this run lives in, created on
/// first use and removed with everything in it at exit (std::exit too).
class ScratchDir {
 public:
  ScratchDir() {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "mtd_bench_store.XXXXXX")
            .string();
    if (mkdtemp(pattern.data()) == nullptr) {
      std::cerr << "FATAL: cannot create a scratch directory from "
                << pattern << "\n";
      std::exit(1);
    }
    path_ = pattern;
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] std::string file(const char* name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

const ScratchDir& scratch_dir() {
  static const ScratchDir dir;
  return dir;
}

const std::string& store_path() {
  static const std::string path = scratch_dir().file("trace.store");
  return path;
}

/// Peak growth of the live heap (glibc mallinfo2: bytes in use in the
/// arenas plus mmapped chunks) over its size at construction, polled on a
/// background thread until stop().
class HeapPeak {
 public:
  HeapPeak() : base_(live_bytes()), peak_(base_) {
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) {
        peak_.store(std::max(peak_.load(), live_bytes()));
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  ~HeapPeak() { (void)stop_mb(); }
  HeapPeak(const HeapPeak&) = delete;
  HeapPeak& operator=(const HeapPeak&) = delete;

  double stop_mb() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
      peak_.store(std::max(peak_.load(), live_bytes()));
    }
    return static_cast<double>(peak_.load() - base_) / (1024.0 * 1024.0);
  }

 private:
  static std::size_t live_bytes() {
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
  }

  std::size_t base_;
  std::atomic<std::size_t> peak_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

std::size_t bench_days() { return mtd::bench::fast_mode() ? 1 : 3; }

TraceConfig bench_trace() {
  TraceConfig trace;
  trace.num_days = bench_days();
  trace.seed = 20231024;
  trace.rate_scale = mtd::bench::fast_mode() ? 0.05 : 0.2;
  return trace;
}

JsonObject run_ingest() {
  const Network& network = mtd::bench::bench_network();
  const TraceConfig trace = bench_trace();
  const auto t0 = Clock::now();
  store::TraceStoreWriter writer = store::TraceStoreWriter::create(
      store_path(), store::StoreOptions{});
  StreamEngine engine(network, trace);
  const EngineResult result = run_engine_into_store(engine, writer);
  writer.close();
  const double wall_s = seconds_since(t0);
  (void)result;

  const store::StoreManifest& manifest = writer.manifest();
  JsonObject row;
  row.emplace("events", static_cast<double>(manifest.events));
  row.emplace("segments", manifest.segments.size());
  row.emplace("pages", static_cast<double>(manifest.committed_pages));
  row.emplace("bytes", static_cast<double>(manifest.committed_bytes()));
  row.emplace("wall_s", wall_s);
  row.emplace("events_per_s",
              wall_s > 0.0 ? static_cast<double>(manifest.events) / wall_s
                           : 0.0);
  return row;
}

JsonObject run_scan(store::TraceStore& reader, std::uint32_t bs,
                    std::uint64_t* pages_read_out) {
  reader.reset_telemetry();
  const auto t0 = Clock::now();
  std::uint64_t events = 0;
  const std::uint64_t delivered =
      reader.scan(bs, 0, static_cast<std::uint16_t>(bench_days() - 1),
                  [&events](const StreamEvent&) { ++events; });
  const double wall_s = seconds_since(t0);
  const store::StoreReadTelemetry& t = reader.telemetry();
  *pages_read_out = t.pages_read;
  JsonObject row;
  row.emplace("bs", static_cast<double>(bs));
  row.emplace("events", static_cast<double>(delivered));
  row.emplace("wall_s", wall_s);
  row.emplace("pages_read", static_cast<double>(t.pages_read));
  row.emplace("leaves_skipped_fence",
              static_cast<double>(t.leaves_skipped_fence));
  return row;
}

JsonObject run_replay(store::TraceStore& reader, std::uint64_t ingested,
                      std::uint64_t* pages_read_out) {
  reader.reset_telemetry();
  CountingSink sink;
  const auto t0 = Clock::now();
  const std::uint64_t replayed = reader.replay(sink);
  const double wall_s = seconds_since(t0);
  if (replayed != ingested || sink.events != ingested) {
    std::cerr << "FATAL: replay returned " << replayed << " events, ingest "
              << "committed " << ingested << "\n";
    std::exit(1);
  }
  const store::StoreReadTelemetry& t = reader.telemetry();
  *pages_read_out = t.pages_read;
  JsonObject row;
  row.emplace("events", static_cast<double>(replayed));
  row.emplace("wall_s", wall_s);
  row.emplace("events_per_s",
              wall_s > 0.0 ? static_cast<double>(replayed) / wall_s : 0.0);
  row.emplace("pages_read", static_cast<double>(t.pages_read));
  return row;
}

// --- Compaction: per-day segments vs one merged segment -------------------
//
// The engine-backed store above has few segments; the per-segment index
// overhead compaction exists to reclaim only shows at the paper's horizon.
// So this section builds its own synthetic store with one committed
// segment per simulated day (45 days, matching the measurement campaign;
// 5 in fast mode) and measures the merge directly.

std::size_t compact_days() { return mtd::bench::fast_mode() ? 5 : 45; }

const std::string& compact_store_path() {
  static const std::string path = scratch_dir().file("compact.store");
  return path;
}

std::uint64_t index_pages(const store::StoreManifest& manifest) {
  std::uint64_t pages = 0;
  for (const store::SegmentInfo& seg : manifest.segments) {
    pages += seg.num_pages - seg.num_leaves;  // fence pages
  }
  return pages;
}

std::uint64_t timed_bs_scan(store::TraceStore& reader, std::uint32_t bs,
                            std::uint16_t day_hi, double* wall_s_out) {
  reader.reset_telemetry();
  const auto t0 = Clock::now();
  std::uint64_t events = 0;
  (void)reader.scan(bs, 0, day_hi, [&events](const StreamEvent&) {
    ++events;
  });
  *wall_s_out = seconds_since(t0);
  return reader.telemetry().pages_read;
}

JsonObject run_compaction() {
  const std::uint16_t days = static_cast<std::uint16_t>(compact_days());
  constexpr std::uint32_t kNumBs = 32;
  constexpr std::uint16_t kMinutes = 16;
  {
    store::TraceStoreWriter writer =
        store::TraceStoreWriter::create(compact_store_path());
    for (std::uint16_t day = 0; day < days; ++day) {
      for (std::uint16_t minute = 0; minute < kMinutes; ++minute) {
        for (std::uint32_t bs = 0; bs < kNumBs; ++bs) {
          StreamEvent event;
          event.key = EventKey{bs, day, minute, 0};
          event.payload = MinuteEvent{bs + minute};
          writer.on_event(event);
        }
      }
      writer.commit();  // one segment per day, like the store runner
    }
    writer.close();
  }

  std::uint64_t index_before = 0;
  std::uint64_t scan_pages_before = 0;
  std::uint64_t segments_before = 0;
  double scan_wall_before = 0.0;
  {
    store::TraceStore reader(compact_store_path());
    segments_before = reader.manifest().segments.size();
    index_before = index_pages(reader.manifest());
    scan_pages_before = timed_bs_scan(
        reader, 7, static_cast<std::uint16_t>(days - 1), &scan_wall_before);
  }

  const auto t0 = Clock::now();
  store::CompactionReport merged;
  {
    store::TraceStoreWriter writer =
        store::TraceStoreWriter::append(compact_store_path());
    merged = writer.compact();
    writer.close();
  }
  const double compact_wall_s = seconds_since(t0);

  store::TraceStore reader(compact_store_path());
  const std::uint64_t index_after = index_pages(reader.manifest());
  double scan_wall_after = 0.0;
  const std::uint64_t scan_pages_after = timed_bs_scan(
      reader, 7, static_cast<std::uint16_t>(days - 1), &scan_wall_after);

  // The point of compaction is reclaiming per-segment index overhead: N
  // roots and N fence chains collapse into one of each.
  if (index_after >= index_before) {
    std::cerr << "FATAL: compaction left " << index_after
              << " index pages, had " << index_before
              << " — merged index is not smaller\n";
    std::exit(1);
  }
  if (scan_pages_after > scan_pages_before) {
    std::cerr << "FATAL: single-BS scan reads " << scan_pages_after
              << " pages after compaction, " << scan_pages_before
              << " before — the merged fences prune worse\n";
    std::exit(1);
  }

  JsonObject row;
  row.emplace("days", static_cast<double>(days));
  row.emplace("events", static_cast<double>(merged.events));
  row.emplace("segments_before", static_cast<double>(segments_before));
  row.emplace("segments_after",
              static_cast<double>(reader.manifest().segments.size()));
  row.emplace("wall_s", compact_wall_s);
  row.emplace("pages_written", static_cast<double>(merged.pages_written));
  row.emplace("pages_retired", static_cast<double>(merged.pages_retired));
  row.emplace("index_pages_before", static_cast<double>(index_before));
  row.emplace("index_pages_after", static_cast<double>(index_after));
  row.emplace("scan_pages_before", static_cast<double>(scan_pages_before));
  row.emplace("scan_pages_after", static_cast<double>(scan_pages_after));
  row.emplace("scan_wall_s_before", scan_wall_before);
  row.emplace("scan_wall_s_after", scan_wall_after);
  return row;
}

// --- Compaction of an hourly-committed engine store ----------------------
//
// The store runner commits at every engine checkpoint; with hourly
// checkpoints two days leave 48 segments, the shape a periodic compaction
// pass merges. The merge streams pages as it fills them, so its heap
// growth is bounded by per-leaf index metadata, not by the event count.

JsonObject run_compaction_48() {
  const std::string path = scratch_dir().file("hourly.store");
  TraceConfig trace = bench_trace();
  trace.num_days = 2;
  EngineConfig config;
  config.kernel = GeneratorKernel::kBatch;
  config.checkpoint_interval_minutes = 60;
  double ingest_wall_s = 0.0;
  {
    const auto t0 = Clock::now();
    store::TraceStoreWriter writer = store::TraceStoreWriter::create(path);
    StreamEngine engine(mtd::bench::bench_network(), trace, config);
    (void)run_engine_into_store(engine, writer);
    writer.close();
    ingest_wall_s = seconds_since(t0);
  }
  store::TraceStoreWriter writer = store::TraceStoreWriter::append(path);
  const std::uint64_t segments = writer.manifest().segments.size();
  HeapPeak heap;
  const auto t0 = Clock::now();
  const store::CompactionReport report = writer.compact();
  const double wall_s = seconds_since(t0);
  const double heap_mb = heap.stop_mb();
  writer.close();
  if (segments != 48 || report.segments_after != 1) {
    std::cerr << "FATAL: expected 48 hourly segments merged into one, got "
              << segments << " -> " << report.segments_after << "\n";
    std::exit(1);
  }

  JsonObject row;
  row.emplace("segments_before", static_cast<double>(segments));
  row.emplace("events", static_cast<double>(report.events));
  row.emplace("pages_written", static_cast<double>(report.pages_written));
  row.emplace("ingest_wall_s", ingest_wall_s);
  row.emplace("wall_s", wall_s);
  row.emplace("heap_growth_mb", heap_mb);
  return row;
}

}  // namespace

int main() {
  JsonObject report;
  report.emplace("bench", "store");
  report.emplace("fast", mtd::bench::fast_mode());

  JsonObject ingest = run_ingest();
  const auto ingested =
      static_cast<std::uint64_t>(ingest.at("events").as_number());
  std::cout << Json(JsonObject(ingest)).dump() << "\n";

  store::TraceStore reader(store_path());
  const store::StoreVerifyReport verified = reader.verify();
  if (verified.events != ingested) {
    std::cerr << "FATAL: verify counted " << verified.events
              << " events, ingest committed " << ingested << "\n";
    return 1;
  }

  const std::uint32_t probe_bs =
      reader.manifest().segments.front().min_key.bs;
  std::uint64_t scan_pages = 0;
  std::uint64_t replay_pages = 0;
  JsonObject scan = run_scan(reader, probe_bs, &scan_pages);
  std::cout << Json(JsonObject(scan)).dump() << "\n";
  JsonObject replay = run_replay(reader, ingested, &replay_pages);
  std::cout << Json(JsonObject(replay)).dump() << "\n";

  // The index must prune: a one-BS scan cannot legitimately touch as many
  // pages as reading the whole store.
  if (scan_pages >= replay_pages) {
    std::cerr << "FATAL: single-BS scan read " << scan_pages
              << " pages, full replay " << replay_pages
              << " — the index pruned nothing\n";
    return 1;
  }

  JsonObject compaction = run_compaction();
  std::cout << Json(JsonObject(compaction)).dump() << "\n";
  JsonObject compaction_48 = run_compaction_48();
  std::cout << Json(JsonObject(compaction_48)).dump() << "\n";

  report.emplace("ingest", Json(std::move(ingest)));
  report.emplace("scan", Json(std::move(scan)));
  report.emplace("replay", Json(std::move(replay)));
  report.emplace("compaction", Json(std::move(compaction)));
  report.emplace("compaction_48", Json(std::move(compaction_48)));
  mtd::write_file("BENCH_store.json", Json(std::move(report)).dump());
  std::cerr << "[bench] wrote BENCH_store.json\n";
  return 0;
}
