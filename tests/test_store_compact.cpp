// Background segment compaction (DESIGN.md section 15): merging every
// committed segment into one must preserve the replayed byte stream
// exactly, retire the superseded pages into dead_pages, and survive a
// crash at any store.compact.* fault point with the previous manifest
// fully live.
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "events/event_sink.hpp"
#include "events/session_source.hpp"
#include "io/json.hpp"
#include "store/trace_store.hpp"

namespace mtd {
namespace {

using store::CompactionReport;
using store::StoreOptions;
using store::TraceStore;
using store::TraceStoreWriter;

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
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
  payload.session.service = 2;
  payload.session.volume_mb = volume_mb;
  payload.session.duration_s = 30.0;
  event.payload = payload;
  return event;
}

/// A store with one segment per day: interleaved BSs so the merged segment
/// re-sorts records across segment boundaries.
void build_segmented_store(const std::string& path, std::uint16_t days,
                           FaultInjector* fault = nullptr) {
  TraceStoreWriter writer =
      fault ? TraceStoreWriter::create(path, {}, fault)
            : TraceStoreWriter::create(path);
  for (std::uint16_t day = 0; day < days; ++day) {
    for (std::uint32_t bs = 0; bs < 16; ++bs) {
      writer.on_event(minute_event(bs, day, 0, 0, bs + day));
      writer.on_event(session_event(bs, day, 5, 1, 1.5 * (bs + 1)));
    }
    writer.commit();
  }
  writer.close();
}

/// Every committed event of the store at `path`, in replay order.
std::vector<StreamEvent> replayed(const std::string& path) {
  MemorySessionSource::Collector collector;
  (void)TraceStore(path).replay(collector);
  return std::move(collector).take();
}

void expect_identical_replay(const std::vector<StreamEvent>& a,
                             const std::vector<StreamEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key) << i;
    EXPECT_EQ(a[i].kind(), b[i].kind()) << i;
    if (a[i].kind() == EventKind::kSession) {
      EXPECT_EQ(std::get<SessionEvent>(a[i].payload).session.volume_mb,
                std::get<SessionEvent>(b[i].payload).session.volume_mb)
          << i;
    }
  }
}

TEST(TraceStoreCompact, MergesSegmentsPreservingReplayAndAccounting) {
  const std::string path = temp_path("mtd_compact_basic.store");
  build_segmented_store(path, 4);

  std::uint64_t pages_before = 0;
  {
    TraceStore reader(path);
    ASSERT_EQ(reader.manifest().segments.size(), 4u);
    pages_before = reader.manifest().committed_pages;
  }
  const std::vector<StreamEvent> before = replayed(path);

  CompactionReport report;
  {
    TraceStoreWriter writer = TraceStoreWriter::append(path);
    report = writer.compact();
    writer.close();
  }
  EXPECT_EQ(report.segments_before, 4u);
  EXPECT_EQ(report.segments_after, 1u);
  EXPECT_EQ(report.events, before.size());
  EXPECT_GT(report.pages_retired, 0u);

  TraceStore reader(path);
  ASSERT_EQ(reader.manifest().segments.size(), 1u);
  EXPECT_EQ(reader.manifest().events, before.size());
  // The retired pages stay inside the committed length (append-only), so
  // committed_pages grows by the merged segment while dead_pages absorbs
  // the old ones: 1 + dead + live == committed.
  EXPECT_EQ(reader.manifest().dead_pages, report.pages_retired);
  EXPECT_EQ(1 + reader.manifest().dead_pages +
                reader.manifest().segments[0].num_pages,
            reader.manifest().committed_pages);
  EXPECT_EQ(reader.manifest().committed_pages,
            pages_before + report.pages_written);

  expect_identical_replay(before, replayed(path));

  // verify() walks the single live segment and skips the dead ranges.
  const auto verified = reader.verify();
  EXPECT_EQ(verified.segments, 1u);
  EXPECT_EQ(verified.events, before.size());

  // Point lookups and pruned scans still resolve through the new fences.
  EXPECT_TRUE(reader.get(EventKey{3, 2, 5, 1}).has_value());
  EXPECT_FALSE(reader.get(EventKey{3, 2, 6, 0}).has_value());
  std::uint64_t scanned = 0;
  (void)reader.scan(7, 1, 2, [&scanned](const StreamEvent&) { ++scanned; });
  EXPECT_EQ(scanned, 4u);  // 2 events x 2 days
}

TEST(TraceStoreCompact, SingleSegmentAndEmptyStoreAreNoOps) {
  const std::string path = temp_path("mtd_compact_noop.store");
  build_segmented_store(path, 1);
  TraceStoreWriter writer = TraceStoreWriter::append(path);
  const CompactionReport report = writer.compact();
  EXPECT_EQ(report.segments_before, 1u);
  EXPECT_EQ(report.segments_after, 1u);
  EXPECT_EQ(report.pages_written, 0u);
  EXPECT_EQ(report.pages_retired, 0u);
  writer.close();
  EXPECT_EQ(TraceStore(path).manifest().dead_pages, 0u);

  const std::string empty = temp_path("mtd_compact_empty.store");
  TraceStoreWriter fresh = TraceStoreWriter::create(empty);
  const CompactionReport none = fresh.compact();
  EXPECT_EQ(none.segments_before, 0u);
  fresh.close();
}

TEST(TraceStoreCompact, PendingEventsSurviveCompactionUntouched) {
  const std::string path = temp_path("mtd_compact_pending.store");
  build_segmented_store(path, 2);

  TraceStoreWriter writer = TraceStoreWriter::append(path);
  writer.on_event(minute_event(99, 5, 0, 0, 7));  // pending, uncommitted
  const CompactionReport report = writer.compact();
  EXPECT_EQ(report.segments_before, 2u);
  EXPECT_EQ(writer.events_pending(), 1u);
  writer.commit();  // lands as a fresh second segment after the merged one
  writer.close();

  TraceStore reader(path);
  ASSERT_EQ(reader.manifest().segments.size(), 2u);
  EXPECT_TRUE(reader.get(EventKey{99, 5, 0, 0}).has_value());
  (void)reader.verify();
}

TEST(TraceStoreCompact, AppendAfterCompactionKeepsAccountingConsistent) {
  const std::string path = temp_path("mtd_compact_append.store");
  build_segmented_store(path, 3);
  {
    TraceStoreWriter writer = TraceStoreWriter::append(path);
    (void)writer.compact();
    writer.close();
  }
  {
    // append() revalidates the page accounting (including dead_pages) on
    // reopen, then extends past the compacted segment.
    TraceStoreWriter writer = TraceStoreWriter::append(path);
    writer.on_event(minute_event(3, 3, 0, 0, 1));
    writer.close();
  }
  TraceStore reader(path);
  EXPECT_EQ(reader.manifest().segments.size(), 2u);
  EXPECT_GT(reader.manifest().dead_pages, 0u);
  (void)reader.verify();

  // A second compaction folds the post-compaction segment in as well and
  // retires the first merged segment's pages on top of the old total.
  const std::uint64_t dead_before = reader.manifest().dead_pages;
  {
    TraceStoreWriter writer = TraceStoreWriter::append(path);
    const CompactionReport report = writer.compact();
    EXPECT_EQ(report.segments_before, 2u);
    writer.close();
  }
  TraceStore again(path);
  EXPECT_EQ(again.manifest().segments.size(), 1u);
  EXPECT_GT(again.manifest().dead_pages, dead_before);
  EXPECT_EQ(again.verify().events, again.manifest().events);
}

// The compaction fault matrix: every store.compact.* phase x both failure
// flavors. Whatever phase dies, the previous committed multi-segment state
// stays fully readable (scan and replay bit-identical to pre-compaction),
// and a retried compaction lands.
TEST(TraceStoreCompact, EveryCompactionPhaseFailureKeepsPreviousState) {
  const char* kPoints[] = {"store.compact.pages", "store.compact.sync",
                           "store.compact.manifest"};
  const FaultAction kActions[] = {FaultAction::kError, FaultAction::kThrow};
  int variant = 0;
  for (const char* point : kPoints) {
    for (const FaultAction action : kActions) {
      const std::string path = temp_path(
          ("mtd_compact_fault_" + std::to_string(variant++) + ".store")
              .c_str());
      build_segmented_store(path, 3);
      const std::vector<StreamEvent> before = replayed(path);

      FaultInjector fault;
      TraceStoreWriter writer = TraceStoreWriter::append(path, &fault);
      fault.arm(point, FaultSpec{.action = action});
      if (action == FaultAction::kError) {
        EXPECT_THROW((void)writer.compact(), InjectedFault) << point;
      } else {
        EXPECT_THROW((void)writer.compact(), std::runtime_error) << point;
      }
      EXPECT_EQ(fault.fired(point), 1u);

      // A concurrent reader (and a post-crash reopen) sees the old
      // segments, bit-identical — the crashed attempt published nothing.
      {
        TraceStore reader(path);
        EXPECT_EQ(reader.manifest().segments.size(), 3u) << point;
        EXPECT_EQ(reader.manifest().dead_pages, 0u) << point;
        expect_identical_replay(before, replayed(path));
        (void)reader.verify();
      }

      // A fresh incarnation reclaims the torn tail and retries to success.
      TraceStoreWriter retry = TraceStoreWriter::append(path);
      const CompactionReport report = retry.compact();
      EXPECT_EQ(report.segments_before, 3u) << point;
      EXPECT_EQ(report.segments_after, 1u) << point;
      retry.close();

      TraceStore reader(path);
      ASSERT_EQ(reader.manifest().segments.size(), 1u) << point;
      expect_identical_replay(before, replayed(path));
      EXPECT_EQ(reader.verify().events, before.size());
    }
  }
}

// Compaction streams the merged segment's pages to the file before the
// sync point. A fault there must still publish nothing: the previous
// manifest stays live over the streamed tail, append() reclaims the tail,
// and the retried compaction writes exactly the bytes a clean one does.
TEST(TraceStoreCompact, StreamedSyncFaultReclaimsAndRetriesIdentically) {
  const std::string clean = temp_path("mtd_compact_stream_clean.store");
  const std::string faulted = temp_path("mtd_compact_stream_fault.store");
  build_segmented_store(clean, 6);
  build_segmented_store(faulted, 6);
  {
    TraceStoreWriter writer = TraceStoreWriter::append(clean);
    (void)writer.compact();
    writer.close();
  }

  const std::vector<StreamEvent> before = replayed(faulted);
  const std::uint64_t committed_bytes =
      TraceStore(faulted).manifest().committed_bytes();
  const std::string manifest_before = read_file(faulted);
  {
    FaultInjector fault;
    TraceStoreWriter writer = TraceStoreWriter::append(faulted, &fault);
    fault.arm("store.compact.sync", FaultSpec{.action = FaultAction::kError});
    EXPECT_THROW((void)writer.compact(), InjectedFault);
    EXPECT_EQ(writer.manifest().segments.size(), 6u);
  }
  // The merged pages reached the file, past the committed length ...
  EXPECT_GT(std::filesystem::file_size(faulted + ".pages"), committed_bytes);
  // ... under the untouched previous manifest.
  EXPECT_EQ(read_file(faulted), manifest_before);
  {
    TraceStore reader(faulted);
    EXPECT_EQ(reader.manifest().segments.size(), 6u);
    expect_identical_replay(before, replayed(faulted));
  }

  {
    TraceStoreWriter writer = TraceStoreWriter::append(faulted);
    EXPECT_EQ(std::filesystem::file_size(faulted + ".pages"),
              committed_bytes);
    (void)writer.compact();
    writer.close();
  }
  EXPECT_EQ(read_file(faulted + ".pages"), read_file(clean + ".pages"));
  EXPECT_EQ(read_file(faulted), read_file(clean));
}

// A dead_pages count the page accounting cannot explain is corruption and
// must be diagnosed at manifest load, not silently accepted.
TEST(TraceStoreCompact, ImplausibleDeadPagesIsDiagnosed) {
  const std::string path = temp_path("mtd_compact_bad_manifest.store");
  build_segmented_store(path, 2);
  {
    TraceStoreWriter writer = TraceStoreWriter::append(path);
    (void)writer.compact();
    writer.close();
  }
  std::string manifest = store::StoreManifest::load(path).to_text();
  const std::string needle = "\"dead_pages\"";
  ASSERT_NE(manifest.find(needle), std::string::npos);
  // dead_pages >= committed_pages is impossible (the superblock and the
  // live segment are committed too).
  const std::size_t value_at = manifest.find(':', manifest.find(needle));
  ASSERT_NE(value_at, std::string::npos);
  const std::size_t quote = manifest.find('"', value_at);
  const std::size_t end_quote = manifest.find('"', quote + 1);
  manifest.replace(quote + 1, end_quote - quote - 1, "ffffffff");
  // A well-formed log whose one record carries the bad count: the record
  // checksum passes, so the manifest's own check must catch it.
  write_file(path, std::string(store::kManifestLogHeader) +
                       store::encode_manifest_record(manifest));
  EXPECT_THROW(TraceStore{path}, ParseError);
}

}  // namespace
}  // namespace mtd
