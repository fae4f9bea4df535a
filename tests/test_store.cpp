#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/fnv.hpp"
#include "dataset/measurement.hpp"
#include "engine/engine.hpp"
#include "engine/store_runner.hpp"
#include "events/event_sink.hpp"
#include "io/json.hpp"
#include "store/trace_store.hpp"
#include "test_store_helpers.hpp"

namespace mtd {
namespace {

using store::StoreOptions;
using store::TraceStore;
using store::TraceStoreWriter;
using test::find_event;

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

Network make_network(std::size_t n = 12) {
  NetworkConfig config;
  config.num_bs = n;
  config.last_decile_rate = 25.0;
  Rng rng(9);
  return Network::build(config, rng);
}

StreamEvent minute_event(std::uint32_t bs, std::uint16_t day,
                         std::uint16_t minute, std::uint64_t seq,
                         std::uint32_t arrivals) {
  StreamEvent event;
  event.key = EventKey{bs, day, minute, seq};
  event.payload = MinuteEvent{arrivals};
  return event;
}

StreamEvent session_event(std::uint32_t bs, std::uint16_t day,
                          std::uint16_t minute, std::uint64_t seq,
                          double volume_mb) {
  StreamEvent event;
  event.key = EventKey{bs, day, minute, seq};
  SessionEvent payload;
  payload.session.bs = bs;
  payload.session.day = day;
  payload.session.minute_of_day = minute;
  payload.session.service = 3;
  payload.session.transient = false;
  payload.session.volume_mb = volume_mb;
  payload.session.duration_s = 42.5;
  event.payload = payload;
  return event;
}

TEST(TraceStore, RoundTripsEventsThroughDiskPages) {
  const std::string path = temp_path("mtd_store_roundtrip.store");
  {
    TraceStoreWriter writer = TraceStoreWriter::create(path);
    writer.on_event(minute_event(3, 0, 5, 0, 17));
    writer.on_event(session_event(3, 0, 5, 1, 12.25));
    writer.on_event(minute_event(7, 1, 0, 0, 4));
    writer.commit();
    EXPECT_EQ(writer.events_committed(), 3u);
    EXPECT_EQ(writer.events_pending(), 0u);
    writer.close();
  }

  TraceStore reader(path);
  EXPECT_EQ(reader.manifest().events, 3u);
  ASSERT_EQ(reader.manifest().segments.size(), 1u);

  const auto minute = find_event(reader, EventKey{3, 0, 5, 0});
  ASSERT_TRUE(minute.has_value());
  EXPECT_EQ(minute->kind(), EventKind::kMinute);
  EXPECT_EQ(std::get<MinuteEvent>(minute->payload).arrivals, 17u);

  const auto session = find_event(reader, EventKey{3, 0, 5, 1});
  ASSERT_TRUE(session.has_value());
  ASSERT_EQ(session->kind(), EventKind::kSession);
  const Session& s = std::get<SessionEvent>(session->payload).session;
  EXPECT_EQ(s.bs, 3u);
  EXPECT_DOUBLE_EQ(s.volume_mb, 12.25);
  EXPECT_DOUBLE_EQ(s.duration_s, 42.5);

  EXPECT_FALSE(find_event(reader, EventKey{3, 0, 5, 2}).has_value());
  EXPECT_FALSE(find_event(reader, EventKey{99, 0, 5, 0}).has_value());

  const auto report = reader.verify();
  EXPECT_EQ(report.events, 3u);
  EXPECT_EQ(report.segments, 1u);
  EXPECT_EQ(report.pages, reader.manifest().committed_pages);
}

TEST(TraceStore, CommitSortsIntoCanonicalKeyOrder) {
  const std::string path = temp_path("mtd_store_sorted.store");
  {
    TraceStoreWriter writer = TraceStoreWriter::create(path);
    // Deliberately shuffled arrival order across BSs and days.
    writer.on_event(minute_event(9, 1, 3, 0, 1));
    writer.on_event(minute_event(2, 0, 8, 5, 2));
    writer.on_event(minute_event(2, 1, 0, 0, 3));
    writer.on_event(minute_event(2, 0, 1, 2, 4));
    writer.on_event(minute_event(9, 0, 0, 0, 5));
    writer.commit();
    writer.close();
  }

  TraceStore reader(path);
  struct Collect final : EventSink {
    std::vector<EventKey> keys;
    void on_event(const StreamEvent& event) override {
      keys.push_back(event.key);
    }
  } sink;
  EXPECT_EQ(reader.replay(sink), 5u);
  ASSERT_EQ(sink.keys.size(), 5u);
  for (std::size_t i = 1; i < sink.keys.size(); ++i) {
    EXPECT_TRUE(sink.keys[i - 1] < sink.keys[i]) << "position " << i;
  }
}

TEST(TraceStore, MergesMultipleSegmentsInKeyOrder) {
  const std::string path = temp_path("mtd_store_merge.store");
  {
    TraceStoreWriter writer = TraceStoreWriter::create(path);
    // Segment 1: even days; segment 2: odd days, interleaving in key space.
    for (std::uint16_t day : {0, 2, 4}) {
      writer.on_event(minute_event(1, day, 0, 0, day + 1u));
    }
    writer.commit();
    for (std::uint16_t day : {1, 3, 5}) {
      writer.on_event(minute_event(1, day, 0, 0, day + 1u));
    }
    writer.commit();
    writer.close();
  }

  TraceStore reader(path);
  ASSERT_EQ(reader.manifest().segments.size(), 2u);
  std::vector<std::uint16_t> days;
  const std::uint64_t count =
      reader.scan(1, 0, 5, [&days](const StreamEvent& event) {
        days.push_back(event.key.day);
      });
  EXPECT_EQ(count, 6u);
  EXPECT_EQ(days, (std::vector<std::uint16_t>{0, 1, 2, 3, 4, 5}));

  // Day-range scans narrow correctly across segments.
  days.clear();
  EXPECT_EQ(reader.scan(1, 2, 3,
                        [&days](const StreamEvent& event) {
                          days.push_back(event.key.day);
                        }),
            2u);
  EXPECT_EQ(days, (std::vector<std::uint16_t>{2, 3}));
}

// Equal keys in several segments (not produced by the engine, but not
// rejected) leave the k-way merge in segment order, for replay, scans and
// the undecoded record replay compaction uses.
TEST(TraceStore, EqualKeysAcrossSegmentsReplayInSegmentOrder) {
  const std::string path = temp_path("mtd_store_equal_keys.store");
  constexpr std::uint32_t kSegments = 5;
  {
    TraceStoreWriter writer = TraceStoreWriter::create(path);
    for (std::uint32_t seg = 0; seg < kSegments; ++seg) {
      // Every segment holds the same three keys; the arrival count names
      // the segment. A second BS gives the heap more than one key.
      writer.on_event(minute_event(4, 0, 1, 0, 100 + seg));
      writer.on_event(minute_event(4, 0, 1, 1, 200 + seg));
      writer.on_event(minute_event(8, 0, 0, 0, 300 + seg));
      writer.commit();
    }
    writer.close();
  }

  TraceStore reader(path);
  ASSERT_EQ(reader.manifest().segments.size(), kSegments);
  struct Collect final : EventSink {
    std::vector<std::uint32_t> arrivals;
    void on_event(const StreamEvent& event) override {
      arrivals.push_back(std::get<MinuteEvent>(event.payload).arrivals);
    }
  } sink;
  EXPECT_EQ(reader.replay(sink), 3u * kSegments);
  std::vector<std::uint32_t> expected;
  for (const std::uint32_t base : {100u, 200u, 300u}) {
    for (std::uint32_t seg = 0; seg < kSegments; ++seg) {
      expected.push_back(base + seg);
    }
  }
  EXPECT_EQ(sink.arrivals, expected);

  std::vector<std::uint32_t> scanned;
  (void)reader.scan(4, 0, 0, [&scanned](const StreamEvent& event) {
    scanned.push_back(std::get<MinuteEvent>(event.payload).arrivals);
  });
  EXPECT_EQ(scanned, std::vector<std::uint32_t>(expected.begin(),
                                                expected.begin() +
                                                    2 * kSegments));

  const auto first = find_event(reader, EventKey{8, 0, 0, 0});
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(std::get<MinuteEvent>(first->payload).arrivals, 300u);

  std::vector<EventKey> keys;
  EXPECT_EQ(reader.replay_records(
                [&keys](const EventKey& key, std::string_view record) {
                  keys.push_back(key);
                  EXPECT_EQ(record.size(),
                            4 + event_payload_bytes(EventKind::kMinute));
                }),
            3u * kSegments);
  ASSERT_EQ(keys.size(), 3u * kSegments);
  EXPECT_EQ(keys.front(), (EventKey{4, 0, 1, 0}));
  EXPECT_EQ(keys.back(), (EventKey{8, 0, 0, 0}));
}

// The commit orders records by grouping BS runs rather than sorting; for
// arrivals whose runs interleave, go backwards and repeat keys, the
// segment must be byte-identical to one written from the same events
// stable-sorted up front.
TEST(TraceStore, UnsortedRunsCommitLikeAStableSort) {
  std::vector<StreamEvent> events;
  Rng rng(31);
  for (std::uint64_t i = 0; i < 3000; ++i) {
    const auto bs = static_cast<std::uint32_t>(rng.uniform_index(7));
    const auto day = static_cast<std::uint16_t>(rng.uniform_index(3));
    const auto minute = static_cast<std::uint16_t>(rng.uniform_index(41));
    // Few distinct seqs, so equal keys recur with different payloads.
    const std::uint64_t seq = rng.uniform_index(4);
    events.push_back(i % 2 == 0
                         ? minute_event(bs, day, minute, seq,
                                        static_cast<std::uint32_t>(i))
                         : session_event(bs, day, minute, seq, 0.5 * i));
  }
  // One BS arrives in order, split into runs by the other BSs: the run
  // path. The rest do not: the fallback path.
  std::vector<StreamEvent> ordered_bs;
  for (std::uint64_t i = 0; i < 200; ++i) {
    ordered_bs.push_back(minute_event(9, 0, static_cast<std::uint16_t>(i), i,
                                      static_cast<std::uint32_t>(i)));
  }
  std::vector<StreamEvent> arrivals;
  for (std::size_t i = 0; i < events.size(); ++i) {
    arrivals.push_back(events[i]);
    if (i % 15 == 0 && i / 15 < ordered_bs.size()) {
      arrivals.push_back(ordered_bs[i / 15]);
    }
  }
  std::vector<StreamEvent> sorted = arrivals;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const StreamEvent& a, const StreamEvent& b) {
                     return a.key < b.key;
                   });

  const auto write = [](const std::string& path,
                        const std::vector<StreamEvent>& in) {
    StoreOptions options;
    options.page_size = 1024;
    TraceStoreWriter writer = TraceStoreWriter::create(path, options);
    for (const StreamEvent& event : in) writer.on_event(event);
    writer.close();
    return read_file(path + ".pages");
  };
  const std::string a = write(temp_path("mtd_store_runs_a.store"), arrivals);
  const std::string b = write(temp_path("mtd_store_runs_b.store"), sorted);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_TRUE(a == b);
}

// Compaction and reads take a record whose length matches its kind's
// entry as canonical; the table must agree with the encoder for every
// kind.
TEST(StoreFormat, PayloadSizeTableMatchesTheEncoder) {
  std::vector<StreamEvent> events = {minute_event(1, 0, 0, 0, 5),
                                     session_event(1, 0, 0, 1, 2.5)};
  events.push_back(StreamEvent{{1, 0, 0, 2}, SegmentEvent{}});
  events.push_back(StreamEvent{{1, 0, 0, 3}, PacketEvent{}});
  for (const StreamEvent& event : events) {
    char buf[kMaxEventPayloadBytes];
    EXPECT_EQ(encode_event_payload(event, buf),
              event_payload_bytes(event.kind()))
        << to_string(event.kind());
  }
}

// The page and manifest record checksum is XXH64 as published: the
// reference vectors for the empty input, a short tail-only input and a
// 39-byte input that runs one 32-byte stripe through the four
// accumulators before its tail.
TEST(StoreFormat, Xxh64MatchesTheReferenceVectors) {
  EXPECT_EQ(store::xxh64(""), 0xef46db3751d8e999ULL);
  EXPECT_EQ(store::xxh64("abc"), 0x44bc2cf5ad770999ULL);
  EXPECT_EQ(store::xxh64("Nobody inspects the spammish repetition"),
            0xfbcea83c8a378bf1ULL);
}

TEST(TraceStore, AppendReopensAndExtends) {
  const std::string path = temp_path("mtd_store_append.store");
  {
    TraceStoreWriter writer = TraceStoreWriter::create(path);
    writer.on_event(minute_event(1, 0, 0, 0, 10));
    writer.close();  // close commits the pending batch
  }
  {
    TraceStoreWriter writer = TraceStoreWriter::append(path);
    EXPECT_EQ(writer.events_committed(), 1u);
    writer.on_event(minute_event(2, 0, 0, 0, 20));
    writer.close();
  }

  TraceStore reader(path);
  EXPECT_EQ(reader.manifest().events, 2u);
  EXPECT_EQ(reader.manifest().segments.size(), 2u);
  EXPECT_TRUE(find_event(reader, EventKey{1, 0, 0, 0}).has_value());
  EXPECT_TRUE(find_event(reader, EventKey{2, 0, 0, 0}).has_value());
  (void)reader.verify();
}

TEST(TraceStore, FencesBoundLeafReads) {
  const std::string path = temp_path("mtd_store_fences.store");
  // Small pages force many leaves; two segments whose key ranges overlap
  // (both span the full BS range) but whose BS populations are disjoint
  // (even vs odd): the worst case for fences, which see only key ranges.
  constexpr std::uint32_t kNumBs = 64;
  constexpr std::uint16_t kMinutes = 40;
  {
    StoreOptions options;
    options.page_size = 512;
    TraceStoreWriter writer = TraceStoreWriter::create(path, options);
    for (std::uint32_t bs = 0; bs < kNumBs; bs += 2) {
      for (std::uint16_t m = 0; m < kMinutes; ++m) {
        writer.on_event(minute_event(bs, 0, m, m, bs + m));
      }
    }
    writer.commit();
    for (std::uint32_t bs = 1; bs < kNumBs; bs += 2) {
      for (std::uint16_t m = 0; m < kMinutes; ++m) {
        writer.on_event(minute_event(bs, 0, m, m, bs + m));
      }
    }
    writer.commit();
    writer.close();
  }

  TraceStore reader(path);
  ASSERT_EQ(reader.manifest().segments.size(), 2u);
  ASSERT_GT(reader.manifest().segments[0].num_leaves, 4u);

  // A scan of an odd BS reads the leaves that hold its kMinutes records
  // (18 to a 512-byte leaf, so 3 leaves, or 4 when unaligned), and also
  // probes the even segment, which holds no such key. Its leaves are
  // sorted and disjoint, so at most one — the one whose fences bracket the
  // BS — is read, which leaves a per-leaf filter nothing to prune.
  constexpr std::uint64_t kPerLeaf =
      (512 - store::kPageHeaderBytes) /
      (4 + event_payload_bytes(EventKind::kMinute));
  constexpr std::uint64_t kOwnLeaves = (kMinutes + kPerLeaf - 1) / kPerLeaf;
  for (std::uint32_t bs = 1; bs < kNumBs; bs += 2) {
    reader.reset_telemetry();
    ASSERT_TRUE(find_event(reader, EventKey{bs, 0, 0, 0}).has_value()) << bs;
    EXPECT_GE(reader.telemetry().leaf_pages_read, kOwnLeaves) << bs;
    EXPECT_LE(reader.telemetry().leaf_pages_read, kOwnLeaves + 2) << bs;
  }

  // A single-BS scan must read strictly fewer pages than the full replay.
  reader.reset_telemetry();
  std::uint64_t scanned = 0;
  (void)reader.scan(6, 0, 0, [&scanned](const StreamEvent&) { ++scanned; });
  const std::uint64_t scan_pages = reader.telemetry().pages_read;
  EXPECT_EQ(scanned, kMinutes);
  EXPECT_GT(reader.telemetry().leaves_skipped_fence, 0u);

  reader.reset_telemetry();
  struct Null final : EventSink {
    void on_event(const StreamEvent&) override {}
  } null_sink;
  (void)reader.replay(null_sink);
  const std::uint64_t replay_pages = reader.telemetry().pages_read;
  EXPECT_LT(scan_pages, replay_pages);
}

TEST(TraceStore, RejectsBadOptions) {
  EXPECT_THROW((void)TraceStoreWriter::create(
                   temp_path("mtd_store_bad1.store"),
                   StoreOptions{.page_size = 64}),
               InvalidArgument);
}

// The acceptance gate of the subsystem: a store filled by the streaming
// engine, closed and reopened, replays into aggregates bit-identical to
// direct generation — for any worker count and batch size, because the
// replay delivers whole cells in (BS, day) order, which MeasurementDataset
// folds one at a time, and within each cell the canonical key order equals
// generation order.
TEST(TraceStore, ReplayFromStoreMatchesDirectGenerationBitExact) {
  const Network network = make_network();
  TraceConfig trace;
  trace.num_days = 2;
  trace.seed = 33;
  const MeasurementDataset direct = collect_dataset(network, trace);

  struct Variant {
    std::size_t workers;
    std::size_t batch;
  };
  for (const Variant v : {Variant{1, 1}, Variant{3, 64}}) {
    const std::string path = temp_path("mtd_store_parity.store");
    {
      EngineConfig config;
      config.num_workers = v.workers;
      config.batch_size = v.batch;
      StreamEngine engine(network, trace, config);
      TraceStoreWriter writer = TraceStoreWriter::create(path);
      const EngineResult result = run_engine_into_store(engine, writer);
      EXPECT_TRUE(result.checkpoint.complete());
      writer.close();
      const std::optional<EngineCheckpoint> stored =
          load_store_checkpoint(writer.manifest());
      ASSERT_TRUE(stored.has_value());
      EXPECT_EQ(stored->clock_minute, trace.num_days * kMinutesPerDay);
    }

    TraceStore reader(path);
    MeasurementDataset replayed(network, trace.num_days);
    TraceSinkAdapter adapter(network, replayed);
    EXPECT_EQ(reader.replay(adapter), reader.manifest().events);
    replayed.finalize();

    EXPECT_EQ(replayed.total_sessions(), direct.total_sessions());
    EXPECT_DOUBLE_EQ(replayed.total_volume_mb(), direct.total_volume_mb());
    const auto a = direct.session_shares();
    const auto b = replayed.session_shares();
    for (std::size_t s = 0; s < a.size(); ++s) EXPECT_DOUBLE_EQ(b[s], a[s]);
    for (std::size_t s = 0; s < direct.num_services(); ++s) {
      const auto& sa = direct.slice(s, Slice::kTotal);
      const auto& sb = replayed.slice(s, Slice::kTotal);
      EXPECT_EQ(sa.sessions, sb.sessions);
      EXPECT_DOUBLE_EQ(sa.volume_mb, sb.volume_mb);
      for (std::size_t i = 0; i < sa.volume_pdf.size(); ++i) {
        EXPECT_DOUBLE_EQ(sa.volume_pdf[i], sb.volume_pdf[i]);
      }
    }
    for (std::uint8_t d = 0; d < kNumDeciles; ++d) {
      EXPECT_EQ(replayed.decile_arrivals(d).day_stats.count(),
                direct.decile_arrivals(d).day_stats.count());
      EXPECT_DOUBLE_EQ(replayed.decile_arrivals(d).day_stats.mean(),
                       direct.decile_arrivals(d).day_stats.mean());
    }
  }
}

// The store's embedded checkpoint is the only way back in. A run stopped
// after one day continues on the reopened store through a second plain
// run_engine_into_store, and the merged segments replay to the aggregates
// of one uninterrupted run. A third call on the complete store commits
// nothing, and an engine under another seed is refused the store.
TEST(TraceStore, RunIntoStoreResumesFromTheStoresOwnCheckpoint) {
  const Network network = make_network();
  TraceConfig trace;
  trace.num_days = 2;
  trace.seed = 33;
  const std::string path = temp_path("mtd_store_resume.store");
  const auto run_into = [&](const TraceConfig& config_trace,
                            std::size_t stop_after_days) {
    EngineConfig config;
    config.stop_after_days = stop_after_days;
    StreamEngine engine(network, config_trace, config);
    TraceStoreWriter writer = TraceStoreWriter::append(path);
    const EngineResult result = run_engine_into_store(engine, writer);
    writer.close();
    return result.checkpoint;
  };

  TraceStoreWriter::create(path).close();
  EXPECT_EQ(run_into(trace, 1).clock_minute, kMinutesPerDay);
  const EngineCheckpoint done = run_into(trace, 0);
  EXPECT_TRUE(done.complete());

  {
    TraceStore reader(path);
    MeasurementDataset replayed(network, trace.num_days);
    TraceSinkAdapter adapter(network, replayed);
    (void)reader.replay(adapter);
    replayed.finalize();
    const MeasurementDataset direct = collect_dataset(network, trace);
    EXPECT_EQ(replayed.total_sessions(), direct.total_sessions());
    EXPECT_DOUBLE_EQ(replayed.total_volume_mb(), direct.total_volume_mb());
    const auto a = direct.session_shares();
    const auto b = replayed.session_shares();
    for (std::size_t s = 0; s < a.size(); ++s) EXPECT_DOUBLE_EQ(b[s], a[s]);
  }

  const std::string manifest = read_file(path);
  EXPECT_EQ(run_into(trace, 0).sessions_emitted, done.sessions_emitted);
  EXPECT_EQ(read_file(path), manifest);

  TraceConfig other = trace;
  other.seed = 34;
  try {
    (void)run_into(other, 0);
    ADD_FAILURE() << "a seed-34 engine resumed a seed-33 store";
  } catch (const InvalidArgument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("trace.seed"), std::string::npos) << what;
  }
  EXPECT_EQ(read_file(path), manifest);
}

// A run stopped one day at a time continues where it stopped: after every
// call the checkpoint embedded in the store is the one the run returned,
// its clock sits on the next day boundary, and once the horizon is reached
// the store replays the same sessions as one uninterrupted run.
TEST(TraceStore, ResumeIntoStoreContinuesWhereItStopped) {
  const Network network = make_network();
  TraceConfig trace;
  trace.num_days = 3;
  trace.seed = 33;
  const std::string path = temp_path("mtd_store_stepwise.store");

  TraceStoreWriter::create(path).close();
  for (std::size_t day = 1; day <= trace.num_days; ++day) {
    EngineConfig config;
    config.stop_after_days = 1;
    StreamEngine engine(network, trace, config);
    TraceStoreWriter writer = TraceStoreWriter::append(path);
    const EngineCheckpoint returned =
        run_engine_into_store(engine, writer).checkpoint;
    writer.close();
    EXPECT_EQ(returned.clock_minute, day * kMinutesPerDay);
    EXPECT_EQ(returned.complete(), day == trace.num_days);

    const std::optional<EngineCheckpoint> stored =
        load_store_checkpoint(TraceStore(path).manifest());
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(stored->to_json().dump(), returned.to_json().dump());
  }

  TraceStore reader(path);
  MeasurementDataset replayed(network, trace.num_days);
  TraceSinkAdapter adapter(network, replayed);
  (void)reader.replay(adapter);
  replayed.finalize();
  const MeasurementDataset direct = collect_dataset(network, trace);
  EXPECT_EQ(replayed.total_sessions(), direct.total_sessions());
  EXPECT_DOUBLE_EQ(replayed.total_volume_mb(), direct.total_volume_mb());
}

// The checkpoint embedded in a store is also its cursor: an engine whose
// horizon disagrees with it is refused, and the refused run leaves the
// manifest bytes untouched.
TEST(TraceStore, CursorMismatchIsRejected) {
  const Network network = make_network();
  TraceConfig trace;
  trace.num_days = 2;
  trace.seed = 33;
  const std::string path = temp_path("mtd_store_cursor.store");
  {
    EngineConfig config;
    config.stop_after_days = 1;
    StreamEngine engine(network, trace, config);
    TraceStoreWriter writer = TraceStoreWriter::create(path);
    EXPECT_FALSE(run_engine_into_store(engine, writer).checkpoint.complete());
    writer.close();
  }
  const std::string manifest = read_file(path);

  TraceConfig other = trace;
  other.num_days = 3;
  {
    StreamEngine engine(network, other);
    TraceStoreWriter writer = TraceStoreWriter::append(path);
    try {
      (void)run_engine_into_store(engine, writer);
      ADD_FAILURE() << "a 3-day engine resumed a 2-day store";
    } catch (const InvalidArgument& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("trace.num_days"), std::string::npos) << what;
    }
  }
  EXPECT_EQ(read_file(path), manifest);
}

// Byte-identity golden for the write path: a fixed engine -> store run
// (hourly commits, periodic compaction) and a standalone compact() of the
// result must produce exactly these page files and manifests. The page
// digests were recorded before the streaming write path replaced the
// sort-and-rebuild one; the manifest digests were re-pinned when the
// manifest dropped its day cursor and the embedded checkpoint its
// redundant cursor keys. The manifest-file digests were re-pinned again
// when the manifest became an append-only log of checksummed records; the
// last record's text still hashes to the digests the replaced whole-file
// manifest had. They were re-pinned once more when mid-day checkpoints
// dropped their per-BS stream cursors, which shrank the mid-day records;
// the last record is a day-boundary checkpoint, so its text and the page
// files kept their digests. All six were re-pinned when format v2 dropped
// the per-leaf bloom pages (before: pages 0x566bdc3f08a977de, log
// 0x9838c34221dcdb62, manifest 0x596be9dd1fc9890e; compacted
// 0x5ead6f4df94c9052, 0xe002695da514232b, 0x54d8aa41b5a6aff7). A walk of
// both stores' leaves through every one of their 75 manifest records found
// all 66,540 leaf payloads and entry counts identical and in order, so only
// the bloom pages, the fence pages' child ids, page ids and the manifest
// text changed. All six were re-pinned again when format v3 swapped the
// FNV-1a page and record checksums for XXH64 and gave each log record
// header its own check (before: pages 0x0b8819282870aae5, log
// 0x9c4510a4673394db, manifest 0x235708741bc047d8; compacted
// 0xf81ab49cc43e480b, 0x4698cae44c3243a0, 0xb0eb803422926c59). The same
// walk over the v2 and v3 stores found the same 66,540 leaf payloads and
// entry counts through all 75 records; the page files differ only in each
// header's version byte and checksum and the superblock's version, and
// each record's text only in its format tag. Any change to record order,
// page packing, fence layout, manifest text or log framing shows up here.
TEST(TraceStore, EngineRunAndCompactionAreByteIdenticalToGolden) {
  std::vector<BaseStation> bss(6);
  for (std::size_t i = 0; i < bss.size(); ++i) {
    bss[i].decile = static_cast<std::uint8_t>(i);
    bss[i].peak_rate = 4.0 + 2.5 * static_cast<double>(i);
    bss[i].offpeak_scale = 0.3;
  }
  const Network network = Network::from_base_stations(std::move(bss));
  TraceConfig trace;
  trace.num_days = 3;
  trace.seed = 20231024;
  EngineConfig config;
  config.num_workers = 2;
  config.kernel = GeneratorKernel::kBatch;
  config.checkpoint_interval_minutes = 60;

  const std::string path = temp_path("mtd_store_golden.store");
  {
    StreamEngine engine(network, trace, config);
    TraceStoreWriter writer = TraceStoreWriter::create(path);
    (void)run_engine_into_store(engine, writer,
                                StoreRunPolicy{.compact_every_days = 2});
    writer.close();
  }
  EXPECT_EQ(fnv1a64(read_file(path + ".pages")),
            0x99f6cba381def57cULL);
  EXPECT_EQ(fnv1a64(read_file(path)), 0xc687f1f972c4d28fULL);
  EXPECT_EQ(fnv1a64(store::StoreManifest::load(path).to_text()),
            0xec4d37d35625116bULL);

  {
    TraceStoreWriter writer = TraceStoreWriter::append(path);
    const store::CompactionReport report = writer.compact();
    EXPECT_EQ(report.segments_after, 1u);
    writer.close();
  }
  EXPECT_EQ(fnv1a64(read_file(path + ".pages")),
            0x26587c19c006d47fULL);
  EXPECT_EQ(fnv1a64(read_file(path)), 0x99f9db4055251a43ULL);
  EXPECT_EQ(fnv1a64(store::StoreManifest::load(path).to_text()),
            0xbf0cfaf0ff15e04eULL);
}

}  // namespace
}  // namespace mtd
