// SessionSource parity goldens (DESIGN.md section 15): the same engine
// realization consumed through MemorySessionSource (in-memory tap) and
// through StoreSessionSource (on-disk TraceStore, any worker count, before
// and after compaction, and across a crashed compaction) must yield
// bit-identical use-case and analysis outputs — Table 2 slicing, the
// Fig. 12/13 vRAN figures, and the Fig. 8 EMD/SED invariance boxplots.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "analysis/bs_level.hpp"
#include "analysis/invariance.hpp"
#include "analysis/throughput.hpp"
#include "common/fault.hpp"
#include "engine/engine.hpp"
#include "engine/store_runner.hpp"
#include "events/session_source.hpp"
#include "store/store_session_source.hpp"
#include "store/trace_store.hpp"
#include "test_helpers.hpp"
#include "usecases/slicing.hpp"
#include "usecases/vran.hpp"

namespace mtd {
namespace {

using store::StoreSessionSource;
using store::TraceStore;
using store::TraceStoreWriter;

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

constexpr std::size_t kNumBs = 24;
constexpr std::size_t kNumDays = 6;  // day 5 is a Saturday: the Days
                                     // invariance tag needs both day types

const Network& parity_network() {
  static const Network network = [] {
    NetworkConfig config;
    config.num_bs = kNumBs;
    config.last_decile_rate = 40.0;
    Rng rng(5);
    return Network::build(config, rng);
  }();
  return network;
}

TraceConfig parity_trace() {
  TraceConfig trace;
  trace.num_days = kNumDays;
  trace.seed = 71;
  return trace;
}

/// The in-memory half of every golden: one single-worker engine run tapped
/// straight into a vector.
MemorySessionSource& memory_source() {
  static MemorySessionSource source = [] {
    EngineConfig config;
    config.num_workers = 1;
    StreamEngine engine(parity_network(), parity_trace(), config);
    MemorySessionSource::Collector tap;
    const EngineResult result = engine.run(tap);
    EXPECT_TRUE(result.checkpoint.complete());
    return MemorySessionSource(std::move(tap).take());
  }();
  return source;
}

/// A store file pair removed when the test process exits.
struct ScratchStore {
  explicit ScratchStore(std::string p) : path(std::move(p)) {}
  ScratchStore(const ScratchStore&) = delete;
  ScratchStore& operator=(const ScratchStore&) = delete;
  ~ScratchStore() {
    std::error_code ignored;
    std::filesystem::remove(path, ignored);
    std::filesystem::remove(path + ".pages", ignored);
  }
  std::string path;
};

/// The store half: the same realization written by a 3-worker engine run
/// (different interleaving, same canonical order once committed). Named
/// per process: ctest runs each test of this file in its own process, and
/// each builds this fixture, so a shared name would let one process
/// truncate the store another is reading.
const std::string& store_path() {
  static const ScratchStore store{[] {
    const std::string p =
        temp_path(("mtd_parity_" + std::to_string(::getpid()) + ".store")
                      .c_str());
    EngineConfig config;
    config.num_workers = 3;
    config.batch_size = 16;
    StreamEngine engine(parity_network(), parity_trace(), config);
    TraceStoreWriter writer = TraceStoreWriter::create(p);
    const EngineResult result = run_engine_into_store(engine, writer);
    EXPECT_TRUE(result.checkpoint.complete());
    writer.close();
    return p;
  }()};
  return store.path;
}

const ModelRegistry& parity_registry() {
  static const ModelRegistry registry = [] {
    MeasurementDataset dataset =
        dataset_from_source(memory_source(), parity_network(), kNumDays);
    return ModelRegistry::fit(dataset);
  }();
  return registry;
}

SlicingConfig slicing_config() {
  SlicingConfig config;
  config.num_antennas = 4;
  config.eval_days = 2;
  config.calibration_days = 1;
  config.seed = 17;
  return config;
}

VranConfig vran_config() {
  VranConfig config;
  config.num_edge_sites = 3;
  config.rus_per_site = 4;
  config.num_days = 1;
  config.seed = 11;
  config.series_seconds = 120;
  return config;
}

void expect_slicing_identical(const SlicingResult& a, const SlicingResult& b) {
  ASSERT_EQ(a.strategies.size(), b.strategies.size());
  for (std::size_t i = 0; i < a.strategies.size(); ++i) {
    EXPECT_EQ(a.strategies[i].name, b.strategies[i].name);
    // Bit identity, not tolerance: EXPECT_EQ on the doubles.
    EXPECT_EQ(a.strategies[i].mean_satisfied, b.strategies[i].mean_satisfied)
        << i;
    EXPECT_EQ(a.strategies[i].stddev_satisfied,
              b.strategies[i].stddev_satisfied)
        << i;
    EXPECT_EQ(a.strategies[i].sla_met_fraction,
              b.strategies[i].sla_met_fraction)
        << i;
    EXPECT_EQ(a.strategies[i].total_allocated_mbps,
              b.strategies[i].total_allocated_mbps)
        << i;
    EXPECT_EQ(a.strategies[i].fig12_allocation_mbps,
              b.strategies[i].fig12_allocation_mbps)
        << i;
  }
  ASSERT_EQ(a.fig12_demand_mbps.size(), b.fig12_demand_mbps.size());
  for (std::size_t m = 0; m < a.fig12_demand_mbps.size(); ++m) {
    EXPECT_EQ(a.fig12_demand_mbps[m], b.fig12_demand_mbps[m]) << m;
  }
}

void expect_vran_identical(const VranResult& a, const VranResult& b) {
  ASSERT_EQ(a.strategies.size(), b.strategies.size());
  for (std::size_t i = 0; i < a.strategies.size(); ++i) {
    EXPECT_EQ(a.strategies[i].name, b.strategies[i].name);
    EXPECT_EQ(a.strategies[i].median_ape_active_ps,
              b.strategies[i].median_ape_active_ps)
        << i;
    EXPECT_EQ(a.strategies[i].median_ape_power,
              b.strategies[i].median_ape_power)
        << i;
    EXPECT_EQ(a.strategies[i].ape_power.median, b.strategies[i].ape_power.median)
        << i;
    EXPECT_EQ(a.strategies[i].mean_power_w, b.strategies[i].mean_power_w) << i;
    ASSERT_EQ(a.strategies[i].power_series_w.size(),
              b.strategies[i].power_series_w.size());
    for (std::size_t t = 0; t < a.strategies[i].power_series_w.size(); ++t) {
      EXPECT_EQ(a.strategies[i].power_series_w[t],
                b.strategies[i].power_series_w[t])
          << i << "," << t;
    }
  }
}

void expect_invariance_identical(const InvarianceReport& a,
                                 const InvarianceReport& b) {
  ASSERT_EQ(a.pdf_distances.size(), b.pdf_distances.size());
  for (std::size_t i = 0; i < a.pdf_distances.size(); ++i) {
    EXPECT_EQ(a.pdf_distances[i].tag, b.pdf_distances[i].tag);
    EXPECT_EQ(a.pdf_distances[i].values, b.pdf_distances[i].values) << i;
    EXPECT_EQ(a.curve_distances[i].values, b.curve_distances[i].values) << i;
  }
}

TEST(SessionSource, MemoryScanDeliversCanonicalOrderAndPushDown) {
  MemorySessionSource& source = memory_source();
  SourceQuery all;
  std::vector<EventKey> keys;
  const std::uint64_t total =
      source.scan(all, [&keys](const StreamEvent& e) { keys.push_back(e.key); });
  EXPECT_EQ(total, source.size());
  for (std::size_t i = 1; i < keys.size(); ++i) {
    EXPECT_TRUE(!(keys[i] < keys[i - 1])) << i;
  }

  // Predicate push-down: one BS, one day, sessions only.
  SourceQuery narrow;
  narrow.bs = 3;
  narrow.day_hi = 0;
  narrow.kinds = EventKindMask{}.set(EventKind::kSession);
  std::uint64_t matched = 0;
  const std::uint64_t delivered =
      source.scan(narrow, [&matched](const StreamEvent& e) {
        EXPECT_EQ(e.key.bs, 3u);
        EXPECT_EQ(e.key.day, 0u);
        EXPECT_EQ(e.kind(), EventKind::kSession);
        ++matched;
      });
  EXPECT_EQ(delivered, matched);
  EXPECT_GT(matched, 0u);
}

TEST(SessionSource, StoreScanDeliversIdenticalStream) {
  TraceStore reader(store_path());
  StoreSessionSource store_source(reader);

  for (const bool narrow : {false, true}) {
    SourceQuery query;
    if (narrow) {
      query.bs = 7;
      query.day_lo = 1;
      query.kinds = EventKindMask::session_replay();
    }
    std::vector<StreamEvent> from_memory, from_store;
    (void)memory_source().scan(
        query, [&](const StreamEvent& e) { from_memory.push_back(e); });
    (void)store_source.scan(
        query, [&](const StreamEvent& e) { from_store.push_back(e); });
    ASSERT_EQ(from_memory.size(), from_store.size()) << narrow;
    for (std::size_t i = 0; i < from_memory.size(); ++i) {
      EXPECT_EQ(from_memory[i].key, from_store[i].key) << i;
      EXPECT_EQ(from_memory[i].kind(), from_store[i].kind()) << i;
      if (from_memory[i].kind() == EventKind::kSession) {
        const Session& m =
            std::get<SessionEvent>(from_memory[i].payload).session;
        const Session& s =
            std::get<SessionEvent>(from_store[i].payload).session;
        EXPECT_EQ(m.service, s.service);
        EXPECT_EQ(m.volume_mb, s.volume_mb);
        EXPECT_EQ(m.duration_s, s.duration_s);
      }
    }
  }
}

TEST(SessionSource, StartSecondIsDeterministicAndBounded) {
  const EventKey key{4, 1, 731, 99};
  const double second = event_start_second(key);
  EXPECT_GE(second, 0.0);
  EXPECT_LT(second, 60.0);
  EXPECT_EQ(event_start_second(key), second);  // pure in the key
  EXPECT_NE(event_start_second(EventKey{4, 1, 731, 100}), second);
}

TEST(SessionSource, DatasetFromSourceMatchesMemoryAndStore) {
  const MeasurementDataset from_memory =
      dataset_from_source(memory_source(), parity_network(), kNumDays);
  TraceStore reader(store_path());
  StoreSessionSource store_source(reader);
  const MeasurementDataset from_store =
      dataset_from_source(store_source, parity_network(), kNumDays);

  EXPECT_EQ(from_memory.total_sessions(), from_store.total_sessions());
  EXPECT_EQ(from_memory.total_volume_mb(), from_store.total_volume_mb());
  for (std::size_t s = 0; s < from_memory.num_services(); ++s) {
    const auto& a = from_memory.slice(s, Slice::kTotal);
    const auto& b = from_store.slice(s, Slice::kTotal);
    EXPECT_EQ(a.sessions, b.sessions) << s;
    EXPECT_EQ(a.volume_mb, b.volume_mb) << s;
  }
}

// A store written for a larger network: the first event of BS 12 is
// rejected naming its key, instead of indexing a 12-BS network past its end.
TEST(SessionSource, DatasetFromAStoreOfALargerNetworkIsRejected) {
  NetworkConfig config;
  config.num_bs = 12;
  Rng rng(5);
  const Network smaller = Network::build(config, rng);
  TraceStore reader(store_path());
  StoreSessionSource store_source(reader);
  EXPECT_TRUE(test::rejects(
      [&] { (void)dataset_from_source(store_source, smaller, kNumDays); },
      "event (bs 12, day 0, minute 0, seq 0): BS 12 outside the 12-BS"));
}

// A session of a service outside the catalogue (a corrupt record with a
// valid page checksum decodes to one) is rejected naming its key.
TEST(SessionSource, DatasetFromASessionOutsideTheCatalogueIsRejected) {
  const auto foreign = static_cast<std::uint16_t>(service_catalog().size());
  Session session;
  session.bs = 3;
  session.day = 1;
  session.minute_of_day = 700;
  session.service = foreign;
  session.volume_mb = 1.0;
  session.duration_s = 10.0;
  MemorySessionSource source(
      {StreamEvent{{3, 1, 700, 0}, MinuteEvent{1}},
       StreamEvent{{3, 1, 700, 1}, SessionEvent{session}}});
  EXPECT_TRUE(test::rejects(
      [&] { (void)dataset_from_source(source, parity_network(), kNumDays); },
      "event (bs 3, day 1, minute 700, seq 1): service " +
          std::to_string(foreign) + " outside the catalogue"));
}

// Table 2 golden: network slicing evaluated over the streamed ground-truth
// demand is bit-identical between the memory and store sources.
TEST(SessionSource, SlicingParityMemoryVsStore) {
  const SlicingResult from_memory =
      run_slicing_from_source(memory_source(), parity_registry(),
                              slicing_config());
  TraceStore reader(store_path());
  StoreSessionSource store_source(reader);
  const SlicingResult from_store =
      run_slicing_from_source(store_source, parity_registry(),
                              slicing_config());
  expect_slicing_identical(from_memory, from_store);
  ASSERT_EQ(from_memory.strategies.size(), 3u);
}

// Fig. 12/13 golden: vRAN energy figures and active-server timelines are
// bit-identical between the sources.
TEST(SessionSource, VranParityMemoryVsStore) {
  const VranResult from_memory =
      run_vran_from_source(memory_source(), parity_registry(), vran_config());
  TraceStore reader(store_path());
  StoreSessionSource store_source(reader);
  const VranResult from_store =
      run_vran_from_source(store_source, parity_registry(), vran_config());
  expect_vran_identical(from_memory, from_store);
  ASSERT_EQ(from_memory.strategies.size(), 5u);
  for (const auto& strategy : from_memory.strategies) {
    EXPECT_GT(strategy.mean_power_w, 0.0) << strategy.name;
  }
}

// Fig. 8 golden: the EMD/SED invariance boxplots re-aggregated from either
// source are bit-identical.
TEST(SessionSource, InvarianceParityMemoryVsStore) {
  InvarianceOptions options;
  options.min_sessions = 20;  // small 2-day fixture
  const InvarianceReport from_memory = analyze_invariance(
      dataset_from_source(memory_source(), parity_network(), kNumDays),
      options);
  TraceStore reader(store_path());
  StoreSessionSource store_source(reader);
  const InvarianceReport from_store = analyze_invariance(
      dataset_from_source(store_source, parity_network(), kNumDays),
      options);
  expect_invariance_identical(from_memory, from_store);
}

TEST(SessionSource, BsSeriesAndThroughputParityMemoryVsStore) {
  TraceStore reader(store_path());
  StoreSessionSource store_source(reader);

  for (const std::uint32_t bs : {0u, 5u, 23u}) {
    const BsLevelSeries a =
        bs_series_from_source(memory_source(), bs, kNumDays);
    const BsLevelSeries b = bs_series_from_source(store_source, bs, kNumDays);
    ASSERT_EQ(a.volume_mb.size(), b.volume_mb.size());
    for (std::size_t m = 0; m < a.volume_mb.size(); ++m) {
      EXPECT_EQ(a.volume_mb[m], b.volume_mb[m]) << bs << "," << m;
    }
  }

  const ThroughputProfile a = throughput_from_source(memory_source(), 0);
  const ThroughputProfile b = throughput_from_source(store_source, 0);
  EXPECT_EQ(a.median_mbps, b.median_mbps);
  EXPECT_EQ(a.p95_mbps, b.p95_mbps);
}

// Compaction transparency: merging every segment into one must not change
// a single output bit — same slicing table, same invariance boxplots —
// even when the compaction first crashes at each store.compact.* fault
// point and is retried after a reopen (the crashed attempt publishes
// nothing).
TEST(SessionSource, ParitySurvivesCompactionAndCompactionCrash) {
  const SlicingResult golden_slicing =
      run_slicing_from_source(memory_source(), parity_registry(),
                              slicing_config());
  InvarianceOptions options;
  options.min_sessions = 20;
  const InvarianceReport golden_invariance = analyze_invariance(
      dataset_from_source(memory_source(), parity_network(), kNumDays),
      options);

  // A private copy of the committed store, so compaction here cannot
  // interfere with the shared fixture.
  const std::string path = temp_path("mtd_parity_compact.store");
  {
    TraceStore original(store_path());
    MemorySessionSource::Collector tap;
    (void)original.replay(tap);
    TraceStoreWriter writer = TraceStoreWriter::create(path);
    MemorySessionSource replayed{std::move(tap).take()};
    SourceQuery day0, day1;
    day0.day_hi = 0;
    day1.day_lo = 1;
    (void)replayed.scan(day0, [&writer](const StreamEvent& e) {
      writer.on_event(e);
    });
    writer.commit();
    (void)replayed.scan(day1, [&writer](const StreamEvent& e) {
      writer.on_event(e);
    });
    writer.close();
  }

  // Crash the compaction at every phase; each crashed attempt must leave
  // the multi-segment store fully live.
  for (const char* point : {"store.compact.pages", "store.compact.sync",
                            "store.compact.manifest"}) {
    FaultInjector fault;
    TraceStoreWriter writer = TraceStoreWriter::append(path, &fault);
    fault.arm(point, FaultSpec{.action = FaultAction::kError});
    EXPECT_THROW((void)writer.compact(), InjectedFault) << point;
    // No close(): the "process" died. The on-disk state must be intact.
    TraceStore reader(path);
    EXPECT_EQ(reader.manifest().segments.size(), 2u) << point;
    (void)reader.verify();
  }

  // The retry (a fresh incarnation) lands; outputs stay bit-identical.
  {
    TraceStoreWriter writer = TraceStoreWriter::append(path);
    const store::CompactionReport report = writer.compact();
    EXPECT_EQ(report.segments_before, 2u);
    EXPECT_EQ(report.segments_after, 1u);
    writer.close();
  }
  TraceStore reader(path);
  EXPECT_EQ(reader.manifest().segments.size(), 1u);
  EXPECT_GT(reader.manifest().dead_pages, 0u);
  StoreSessionSource compacted(reader);
  expect_slicing_identical(
      golden_slicing,
      run_slicing_from_source(compacted, parity_registry(), slicing_config()));
  expect_invariance_identical(
      golden_invariance,
      analyze_invariance(
          dataset_from_source(compacted, parity_network(), kNumDays),
          options));
}

}  // namespace
}  // namespace mtd
