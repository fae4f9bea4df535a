// Crash-safety gate of the trace store (DESIGN.md section 12): for every
// armed fault in the commit path, for a power cut that loses everything
// the writer had not synced, and for a mid-write truncation or bit flip at
// any byte offset, a reader over the files sees either the previous
// committed state or a typed error naming the file and byte offset — never
// silently corrupted data.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "common/fmt.hpp"
#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "io/json.hpp"
#include "store/format.hpp"
#include "store/trace_store.hpp"
#include "test_helpers.hpp"
#include "test_store_helpers.hpp"

namespace mtd {
namespace {

using store::TraceStore;
using store::TraceStoreWriter;
using test::find_event;

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

/// Writes commit 1 (two events), then stages commit 2 behind an armed
/// fault. Returns the writer positioned with commit 2 pending.
TraceStoreWriter make_store_with_pending(const std::string& path,
                                         FaultInjector* fault) {
  TraceStoreWriter writer = TraceStoreWriter::create(path, {}, fault);
  writer.on_event(minute_event(1, 0, 0, 0, 11));
  writer.on_event(minute_event(2, 0, 0, 0, 22));
  writer.commit();
  writer.on_event(minute_event(3, 0, 0, 0, 33));
  writer.on_event(minute_event(4, 0, 0, 0, 44));
  return writer;
}

void expect_commit1_only(const std::string& path) {
  TraceStore reader(path);
  EXPECT_EQ(reader.manifest().events, 2u);
  EXPECT_EQ(reader.manifest().segments.size(), 1u);
  EXPECT_TRUE(find_event(reader, EventKey{1, 0, 0, 0}).has_value());
  EXPECT_TRUE(find_event(reader, EventKey{2, 0, 0, 0}).has_value());
  EXPECT_FALSE(find_event(reader, EventKey{3, 0, 0, 0}).has_value());
  const auto report = reader.verify();
  EXPECT_EQ(report.events, 2u);
}

void expect_both_commits(const std::string& path) {
  TraceStore reader(path);
  EXPECT_EQ(reader.manifest().events, 4u);
  EXPECT_EQ(reader.manifest().segments.size(), 2u);
  for (std::uint32_t bs = 1; bs <= 4; ++bs) {
    EXPECT_TRUE(find_event(reader, EventKey{bs, 0, 0, 0}).has_value()) << bs;
  }
  EXPECT_EQ(reader.verify().events, 4u);
}

// The fault matrix: every commit phase x both failure flavors. Whatever
// phase dies, the previous committed state stays readable and a retried
// commit() lands the pending batch.
TEST(TraceStoreCrash, EveryCommitPhaseFailureKeepsPreviousStateAndRetries) {
  const char* kPoints[] = {"store.commit.pages", "store.commit.sync",
                           "store.commit.manifest"};
  const FaultAction kActions[] = {FaultAction::kError, FaultAction::kThrow};
  int variant = 0;
  for (const char* point : kPoints) {
    for (const FaultAction action : kActions) {
      const std::string path = temp_path(
          ("mtd_store_fault_" + std::to_string(variant++) + ".store")
              .c_str());
      FaultInjector fault;
      TraceStoreWriter writer = make_store_with_pending(path, &fault);
      fault.arm(point, FaultSpec{.action = action});

      if (action == FaultAction::kError) {
        EXPECT_THROW(writer.commit(), InjectedFault) << point;
      } else {
        EXPECT_THROW(writer.commit(), std::runtime_error) << point;
      }
      EXPECT_EQ(fault.fired(point), 1u);
      EXPECT_EQ(writer.events_committed(), 2u) << point;
      EXPECT_EQ(writer.events_pending(), 2u) << point;
      expect_commit1_only(path);  // a concurrent reader sees commit 1 only

      // The failure is transient: the same writer retries successfully.
      writer.commit();
      writer.close();
      expect_both_commits(path);
    }
  }
}

// Mid-write truncation at several byte offsets. Truncating into the
// uncommitted tail is harmless (opening readers ignore it, append()
// reclaims it); truncating into committed pages must produce a ParseError
// that names the .pages path and the byte size it found.
TEST(TraceStoreCrash, TruncationIntoCommittedPagesIsDiagnosed) {
  const std::string path = temp_path("mtd_store_trunc.store");
  {
    TraceStoreWriter writer = TraceStoreWriter::create(path);
    for (std::uint32_t bs = 0; bs < 32; ++bs) {
      writer.on_event(minute_event(bs, 0, 0, 0, bs));
    }
    writer.close();
  }
  const std::string pages_path = path + ".pages";
  const auto full_size = std::filesystem::file_size(pages_path);
  const std::string pages_bytes = read_file(pages_path);
  ASSERT_EQ(pages_bytes.size(), full_size);

  const std::uintmax_t offsets[] = {
      full_size - 1,         // one byte short of the last committed page
      full_size - 513,       // mid last page
      store::kMinPageSize,   // after the superblock only
      100,                   // inside the superblock
      0,                     // empty file
  };
  for (const std::uintmax_t offset : offsets) {
    std::filesystem::resize_file(pages_path, offset);
    try {
      TraceStore reader(path);
      FAIL() << "opened a store truncated at byte " << offset;
    } catch (const ParseError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(pages_path), std::string::npos)
          << "offset " << offset << ": " << what;
      EXPECT_NE(what.find(std::to_string(offset)), std::string::npos)
          << "offset " << offset << ": " << what;
    }
    // Restore for the next offset.
    write_file(pages_path, pages_bytes);
  }
  // Sanity: the restored file opens clean.
  EXPECT_EQ(TraceStore(path).verify().events, 32u);
}

// Garbage past the committed byte count — a crash mid-append before any
// manifest replace — is invisible to readers and reclaimed by append().
TEST(TraceStoreCrash, UncommittedTailIsIgnoredAndReclaimed) {
  const std::string path = temp_path("mtd_store_tail.store");
  {
    TraceStoreWriter writer = TraceStoreWriter::create(path);
    writer.on_event(minute_event(1, 0, 0, 0, 1));
    writer.close();
  }
  const std::string pages_path = path + ".pages";
  const auto committed = std::filesystem::file_size(pages_path);
  {
    std::ofstream tail(pages_path, std::ios::binary | std::ios::app);
    tail << "half-written page torn by a crash";
  }
  ASSERT_GT(std::filesystem::file_size(pages_path), committed);

  {
    TraceStore reader(path);
    EXPECT_EQ(reader.manifest().events, 1u);
    EXPECT_EQ(reader.verify().events, 1u);
  }

  TraceStoreWriter writer = TraceStoreWriter::append(path);
  EXPECT_EQ(std::filesystem::file_size(pages_path), committed);
  writer.on_event(minute_event(2, 0, 0, 0, 2));
  writer.close();

  TraceStore reader(path);
  EXPECT_EQ(reader.manifest().events, 2u);
  EXPECT_EQ(reader.verify().events, 2u);
}

/// Byte offsets of the manifest log's records, plus the log's end.
std::vector<std::size_t> record_offsets(const std::string& log) {
  std::vector<std::size_t> offsets;
  std::size_t pos = store::kManifestLogHeader.size();
  while (pos + store::kManifestRecordHeaderBytes <= log.size()) {
    std::uint64_t length = 0;
    for (int i = 0; i < 8; ++i) {
      length |= std::uint64_t{static_cast<unsigned char>(log[pos + i])}
                << (8 * i);
    }
    offsets.push_back(pos);
    pos += store::kManifestRecordHeaderBytes + length;
  }
  EXPECT_EQ(pos, log.size()) << "the log ends inside a record";
  offsets.push_back(pos);
  return offsets;
}

/// A three-record manifest log: create() (no events), a commit of one
/// event, then close() committing a second.
std::string make_two_commit_store(const std::string& path) {
  TraceStoreWriter writer = TraceStoreWriter::create(path);
  writer.on_event(minute_event(1, 0, 0, 0, 1));
  writer.commit();
  writer.on_event(minute_event(2, 0, 0, 0, 2));
  writer.close();
  return read_file(path);
}

// Manifest log truncation. A cut inside the format line or the first
// record leaves no complete record: a ParseError naming the manifest path
// and the length it was cut to. A cut inside a later record is the torn
// tail of an interrupted append: readers open at the previous record's
// state, and append() cuts the log back to that record.
TEST(TraceStoreCrash, ManifestPrefixTruncationIsDiagnosed) {
  const std::string path = temp_path("mtd_store_manifest_trunc.store");
  const std::string manifest_bytes = make_two_commit_store(path);
  const std::vector<std::size_t> at = record_offsets(manifest_bytes);
  ASSERT_EQ(at.size(), 4u);  // three records and the end

  for (const double fraction : {0.0, 0.25, 0.5, 0.9}) {
    const auto cut = static_cast<std::size_t>(fraction * at[1]);
    write_file(path, manifest_bytes.substr(0, cut));
    try {
      (void)store::StoreManifest::load(path);
      FAIL() << "loaded a manifest truncated to " << cut << " bytes";
    } catch (const ParseError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_NE(what.find(std::to_string(cut)), std::string::npos)
          << "cut " << cut << ": " << what;
    }
  }

  // Record r + 1 torn at several points opens at record r's state.
  for (std::size_t r = 0; r + 2 < at.size(); ++r) {
    const std::size_t begin = at[r + 1];
    const std::size_t end = at[r + 2];
    for (const std::size_t cut :
         {begin + 1, begin + store::kManifestRecordHeaderBytes,
          (begin + end) / 2, end - 1}) {
      write_file(path, manifest_bytes.substr(0, cut));
      TraceStore reader(path);
      EXPECT_EQ(reader.manifest().events, r) << "cut " << cut;
      EXPECT_EQ(reader.verify().events, r) << "cut " << cut;
    }
    // append() reclaims the torn record; the next commit lands after the
    // last complete one.
    {
      TraceStoreWriter writer = TraceStoreWriter::append(path);
      EXPECT_EQ(std::filesystem::file_size(path), begin);
      writer.on_event(minute_event(9, 0, 0, 0, 9));
      writer.close();
    }
    TraceStore reader(path);
    EXPECT_EQ(reader.manifest().events, r + 1);
    EXPECT_EQ(reader.verify().events, r + 1);
    EXPECT_EQ(record_offsets(read_file(path)).size(), r + 3);
  }
  write_file(path, manifest_bytes);
  EXPECT_EQ(TraceStore(path).verify().events, 2u);
}

// A flipped bit anywhere in a complete record — in its length, its
// checksum, its header check or its payload — is a ParseError naming the
// manifest and the byte offset of the record: the header check catches a
// damaged header before its length is trusted. Every byte is flipped in
// memory; one flip per record also goes through the file.
TEST(TraceStoreCrash, ManifestRecordBitFlipIsDiagnosedWithOffset) {
  const std::string path = temp_path("mtd_store_manifest_flip.store");
  const std::string manifest_bytes = make_two_commit_store(path);
  const std::vector<std::size_t> at = record_offsets(manifest_bytes);
  const auto expect_diagnosed = [&](std::size_t byte, unsigned char mask,
                                    std::size_t record_at, bool via_file) {
    std::string bytes = manifest_bytes;
    bytes[byte] = static_cast<char>(bytes[byte] ^ mask);
    try {
      if (via_file) {
        write_file(path, bytes);
        (void)TraceStore(path);
      } else {
        std::istringstream in(bytes);
        (void)store::read_manifest_log(in, path);
      }
      ADD_FAILURE() << "accepted byte " << byte << " flipped";
    } catch (const ParseError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_NE(what.find("at byte " + std::to_string(record_at)),
                std::string::npos)
          << "byte " << byte << ": " << what;
    }
  };
  for (std::size_t r = 0; r + 1 < at.size(); ++r) {
    for (std::size_t byte = at[r]; byte < at[r + 1]; ++byte) {
      expect_diagnosed(byte, static_cast<unsigned char>(1u << (byte % 8)),
                       at[r], false);
    }
    expect_diagnosed((at[r] + at[r + 1]) / 2, 0x01, at[r], true);
  }
  write_file(path, manifest_bytes);
  EXPECT_EQ(TraceStore(path).verify().events, 2u);
}

// The end of the file inside a record's header, or inside the payload of a
// record whose header checks out, is the torn tail of an interrupted
// append: readers ignore it and append() cuts it off. A complete header
// whose length points past the end but fails its check is corruption, not
// a tear: a ParseError naming the manifest and the record's byte offset.
TEST(TraceStoreCrash, ManifestLengthPastTheEndIsATornTail) {
  const std::string path = temp_path("mtd_store_manifest_past_end.store");
  const std::string manifest_bytes = make_two_commit_store(path);
  const std::vector<std::size_t> at = record_offsets(manifest_bytes);
  const std::size_t last = at[at.size() - 2];

  // A valid header promising 16 payload bytes, of which only 5 arrive.
  const std::string torn = store::encode_manifest_record("{\"format\": \"v3\"}");
  ASSERT_EQ(torn.size(), store::kManifestRecordHeaderBytes + 16);
  const std::string appended =
      manifest_bytes + torn.substr(0, store::kManifestRecordHeaderBytes + 5);
  // The same header cut short.
  const std::string cut_header =
      manifest_bytes +
      torn.substr(0, store::kManifestRecordHeaderBytes - 1);

  for (const std::string& bytes : {appended, cut_header}) {
    write_file(path, bytes);
    {
      TraceStore reader(path);
      EXPECT_EQ(reader.manifest().events, 2u);
      EXPECT_EQ(reader.verify().events, 2u);
    }
    {
      TraceStoreWriter writer = TraceStoreWriter::append(path);
      EXPECT_EQ(std::filesystem::file_size(path), manifest_bytes.size());
      writer.on_event(minute_event(7, 0, 0, 0, 7));
      writer.close();
    }
    EXPECT_EQ(TraceStore(path).verify().events, 3u);
  }

  // The last record's own length pointing past the end.
  std::string stretched = manifest_bytes;
  stretched[last + 6] = static_cast<char>(0x7f);
  write_file(path, stretched);
  for (const bool reopen : {false, true}) {
    try {
      if (reopen) {
        (void)TraceStoreWriter::append(path);
      } else {
        (void)TraceStore(path);
      }
      ADD_FAILURE() << "opened a log whose last length was stretched";
    } catch (const ParseError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_NE(what.find("at byte " + std::to_string(last)),
                std::string::npos)
          << what;
    }
  }
  EXPECT_EQ(read_file(path), stretched);
}

// A high bit set in the length field of any record, the last or an
// earlier one, is a ParseError naming the manifest and the record's byte
// offset. Such a length points past the end of the file, and a log whose
// headers carried no check of their own read it as a torn tail, opening
// the store at an earlier commit without any error.
TEST(TraceStoreCrash, ManifestLengthHighBitIsDiagnosed) {
  const std::string path = temp_path("mtd_store_manifest_high_bit.store");
  const std::string manifest_bytes = make_two_commit_store(path);
  const std::vector<std::size_t> at = record_offsets(manifest_bytes);
  ASSERT_EQ(at.size(), 4u);  // three records and the end
  for (std::size_t r = 0; r + 1 < at.size(); ++r) {
    for (std::size_t bit = 32; bit < 64; ++bit) {
      std::string bytes = manifest_bytes;
      const std::size_t byte = at[r] + bit / 8;
      bytes[byte] = static_cast<char>(bytes[byte] | (1u << (bit % 8)));
      const bool via_file = bit == 63;
      try {
        if (via_file) {
          write_file(path, bytes);
          (void)TraceStore(path);
        } else {
          std::istringstream in(bytes);
          (void)store::read_manifest_log(in, path);
        }
        ADD_FAILURE() << "record " << r << ": accepted length bit " << bit;
      } catch (const ParseError& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find(path), std::string::npos) << what;
        EXPECT_NE(what.find("at byte " + std::to_string(at[r])),
                  std::string::npos)
            << "record " << r << ", bit " << bit << ": " << what;
      }
    }
  }
}

// A log that would outgrow its cap is rewritten as its newest record
// through write_file_atomic: the rewrite is synced whole, keeps the
// committed state, and later commits append to the new log.
TEST(TraceStoreCrash, ManifestLogPastItsCapIsRewrittenAsOneRecord) {
  const std::string path = temp_path("mtd_store_manifest_cap.store");
  TraceStoreWriter writer = TraceStoreWriter::create(path);
  std::uint64_t largest = 0;
  std::uint32_t commits = 0;
  for (; commits < 1000; ++commits) {
    writer.on_event(minute_event(commits, 0, 0, 0, commits));
    writer.commit();
    const std::uint64_t size = std::filesystem::file_size(path);
    if (size < largest) break;  // rewritten
    largest = size;
  }
  ASSERT_LT(commits, 1000u) << "the log was never rewritten";
  EXPECT_LE(largest, store::kManifestLogRewriteBytes);
  EXPECT_EQ(record_offsets(read_file(path)).size(), 2u);
  EXPECT_EQ(writer.synced_bytes().manifest, std::filesystem::file_size(path));
  EXPECT_EQ(TraceStore(path).manifest().to_text(),
            writer.manifest().to_text());

  writer.on_event(minute_event(commits + 1, 0, 0, 0, 1));
  writer.close();
  EXPECT_EQ(record_offsets(read_file(path)).size(), 3u);
  EXPECT_EQ(TraceStore(path).verify().events, commits + 2);
}

// The power-cut leg. A commit or compaction that failed at any of its
// fault points leaves the writer's synced lengths as the only bytes sure
// to survive a power cut; truncating both files to them must still open
// at the last acknowledged commit, and resuming through append() must
// reach page bytes identical to a run that never failed. The schedule
// (events, which hit of the point fails) is drawn from the seed.
struct PowerCutSchedule {
  std::vector<std::vector<StreamEvent>> batches;
  /// A batch index commits that batch; kCompact compacts.
  std::vector<std::size_t> ops;
  static constexpr std::size_t kCompact = ~std::size_t{0};
};

PowerCutSchedule make_power_cut_schedule(std::uint64_t seed) {
  PowerCutSchedule schedule;
  Rng rng(seed);
  std::uint64_t seq = 0;
  for (std::uint16_t day = 0; day < 8; ++day) {
    std::vector<StreamEvent>& batch = schedule.batches.emplace_back();
    for (std::uint32_t bs = 0; bs < 6; ++bs) {
      std::uint16_t minute = 0;
      const std::uint64_t n = 5 + rng.uniform_index(60);
      for (std::uint64_t i = 0; i < n && minute < 1440; ++i) {
        batch.push_back(minute_event(bs, day, minute, seq++,
                                     static_cast<std::uint32_t>(
                                         rng.uniform_index(50))));
        minute = static_cast<std::uint16_t>(minute + 1 +
                                            rng.uniform_index(20));
      }
    }
  }
  const std::size_t kCompact = PowerCutSchedule::kCompact;
  schedule.ops = {0, 1, 2, kCompact, 3, 4, 5, kCompact, 6, 7};
  return schedule;
}

void run_op(const PowerCutSchedule& schedule, std::size_t op,
            TraceStoreWriter& writer) {
  const std::size_t batch = schedule.ops[op];
  if (batch == PowerCutSchedule::kCompact) {
    (void)writer.compact();
    return;
  }
  for (const StreamEvent& event : schedule.batches[batch]) {
    writer.on_event(event);
  }
  writer.set_engine_checkpoint("through batch " + std::to_string(batch));
  writer.commit();
}

TEST(TraceStoreCrash, PowerCutAtEveryFaultPointReopensAtTheLastCommit) {
  namespace fs = std::filesystem;
  const char* kPoints[] = {"store.commit.pages",   "store.commit.sync",
                           "store.commit.manifest", "store.compact.pages",
                           "store.compact.sync",   "store.compact.manifest"};
  for (const std::uint64_t seed : {1, 2, 3, 4, 5, 42}) {
    const PowerCutSchedule schedule = make_power_cut_schedule(seed);
    const std::string clean = temp_path("mtd_store_power_clean.store");
    {
      TraceStoreWriter writer = TraceStoreWriter::create(clean);
      for (std::size_t op = 0; op < schedule.ops.size(); ++op) {
        run_op(schedule, op, writer);
        // An acknowledged commit or compaction is synced whole.
        EXPECT_EQ(writer.synced_bytes().pages,
                  fs::file_size(clean + ".pages"));
        EXPECT_EQ(writer.synced_bytes().manifest, fs::file_size(clean));
      }
      writer.close();
    }
    const std::string clean_pages = read_file(clean + ".pages");
    const std::string clean_manifest =
        store::StoreManifest::load(clean).to_text();

    Rng pick(seed);
    for (const std::string point : kPoints) {
      const bool compaction = point.starts_with("store.compact.");
      const std::uint64_t hits = compaction ? 2 : schedule.batches.size();
      const std::uint64_t after = pick.uniform_index(hits);
      SCOPED_TRACE("seed " + std::to_string(seed) + ", " + point +
                   " failing at hit " + std::to_string(after + 1));

      const std::string path = temp_path("mtd_store_power_cut.store");
      FaultInjector fault;
      fault.arm(point, FaultSpec{.action = FaultAction::kError,
                                 .after = after});
      std::size_t failed = 0;
      std::string acknowledged;
      TraceStoreWriter::SyncedBytes synced;
      {
        TraceStoreWriter writer = TraceStoreWriter::create(path, {}, &fault);
        for (; failed < schedule.ops.size(); ++failed) {
          try {
            run_op(schedule, failed, writer);
          } catch (const InjectedFault&) {
            break;
          }
        }
        ASSERT_LT(failed, schedule.ops.size());
        acknowledged = writer.manifest().to_text();
        synced = writer.synced_bytes();
      }  // dropped unclosed: the process died with the fault
      const std::uint64_t unsynced =
          fs::file_size(path + ".pages") - synced.pages;
      if (point.ends_with(".sync")) {
        EXPECT_GT(unsynced, 0u) << "the cut removes the unsynced pages";
      }
      fs::resize_file(path + ".pages", synced.pages);
      fs::resize_file(path, synced.manifest);
      {
        TraceStore reader(path);
        EXPECT_EQ(reader.manifest().to_text(), acknowledged);
        EXPECT_EQ(reader.verify().events, reader.manifest().events);
      }
      {
        TraceStoreWriter writer = TraceStoreWriter::append(path);
        for (std::size_t op = failed; op < schedule.ops.size(); ++op) {
          run_op(schedule, op, writer);
        }
        writer.close();
      }
      EXPECT_EQ(read_file(path + ".pages"), clean_pages);
      EXPECT_EQ(store::StoreManifest::load(path).to_text(), clean_manifest);
    }
  }
}

// Every integer field of the manifest is range-checked before the cast: a
// negative, fractional or huge number is a ParseError naming the field,
// never a wrapped value (a page_size of -1 used to load as 2^64 - 1).
TEST(TraceStoreCrash, ManifestIntegerFieldsAreRangeChecked) {
  const std::string path = temp_path("mtd_store_manifest_ints.store");
  {
    TraceStoreWriter writer = TraceStoreWriter::create(path);
    writer.on_event(minute_event(1, 0, 0, 0, 1));
    writer.close();
  }
  const Json good = Json::parse(store::StoreManifest::load(path).to_text());
  ASSERT_EQ(store::StoreManifest::from_text(good.dump(2)).events, 1u);

  const std::vector<std::pair<std::string, std::vector<const char*>>>
      fields = {
          {"StoreManifest.page_size", {"page_size"}},
          {"StoreManifest.segment.depth", {"segments", "depth"}},
          {"StoreManifest.segment.min_key.bs", {"segments", "min_key", "bs"}},
          {"StoreManifest.segment.min_key.day", {"segments", "min_key", "day"}},
          {"StoreManifest.segment.min_key.minute",
           {"segments", "min_key", "minute"}},
          {"StoreManifest.segment.max_key.bs", {"segments", "max_key", "bs"}},
          {"StoreManifest.segment.max_key.day", {"segments", "max_key", "day"}},
          {"StoreManifest.segment.max_key.minute",
           {"segments", "max_key", "minute"}},
      };
  for (const auto& [name, path] : fields) {
    for (const double value : {-1.0, 0.5, 1e300}) {
      Json bad = good;
      test::json_node(bad, path) = Json(value);
      try {
        (void)store::StoreManifest::from_text(bad.dump(2));
        ADD_FAILURE() << name << " = " << value << " loaded";
      } catch (const ParseError& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find(name + ": expected an integer"),
                  std::string::npos)
            << name << " = " << value << ": " << what;
      }
    }
  }
}

// Format v1 stores (with per-leaf bloom pages) are not read: a v1 manifest
// record is a ParseError naming its tag and the supported one, whether it
// is parsed directly, opened by a reader or reopened for appending.
TEST(TraceStoreCrash, VersionOneManifestIsRejected) {
  const std::string path = temp_path("mtd_store_v1.store");
  {
    TraceStoreWriter writer = TraceStoreWriter::create(path);
    writer.on_event(minute_event(1, 0, 0, 0, 1));
    writer.close();
  }
  const std::string v1 = R"({
  "bloom_bits_per_key": 10,
  "committed_pages": "0x3",
  "events": "0x1",
  "events_by_kind": {"minute": "0x1", "packet": "0x0", "segment": "0x0",
                     "session": "0x0"},
  "format": "mtd-trace-store-v1",
  "page_size": 4096,
  "segments": [{
    "first_page": "0x1", "num_pages": "0x2",
    "first_leaf": "0x1", "num_leaves": "0x1",
    "first_bloom_page": "0x2", "num_bloom_pages": "0x1",
    "bloom_bytes": 8, "bloom_hashes": 7,
    "root": "0x1", "depth": 0, "events": "0x1",
    "min_key": {"bs": 1, "day": 0, "minute": 0, "seq": "0x0"},
    "max_key": {"bs": 1, "day": 0, "minute": 0, "seq": "0x0"}
  }]
})";
  write_file(path, std::string(store::kManifestLogHeader) +
                       store::encode_manifest_record(v1));
  const auto expect_rejected = [](const std::string& what) {
    EXPECT_NE(what.find("mtd-trace-store-v1"), std::string::npos) << what;
    EXPECT_NE(what.find("mtd-trace-store-v3"), std::string::npos) << what;
  };
  try {
    (void)store::StoreManifest::from_text(v1);
    ADD_FAILURE() << "from_text parsed a v1 manifest";
  } catch (const ParseError& error) {
    expect_rejected(error.what());
  }
  try {
    TraceStore reader(path);
    ADD_FAILURE() << "TraceStore opened a v1 store";
  } catch (const ParseError& error) {
    expect_rejected(error.what());
  }
  try {
    (void)TraceStoreWriter::append(path);
    ADD_FAILURE() << "append reopened a v1 store";
  } catch (const ParseError& error) {
    expect_rejected(error.what());
  }
}

// Format v2 stores (FNV-1a checksums) are not read either. Each of their
// three tags is rejected, naming the tag found and the supported one: the
// mtd-trace-store-log-v1 log by readers and append(), the
// mtd-trace-store-v2 manifest text by from_text(), and the version-1 page
// file behind a current log by its superblock check.
TEST(TraceStoreCrash, VersionTwoStoreIsRejected) {
  const std::string path = temp_path("mtd_store_v2.store");
  const std::string v2 = R"({
  "committed_pages": "0x1",
  "events": "0x0",
  "events_by_kind": {"minute": "0x0", "packet": "0x0", "segment": "0x0",
                     "session": "0x0"},
  "format": "mtd-trace-store-v2",
  "page_size": 4096,
  "segments": []
})";
  // The v2 log framing: [u64 length][u64 fnv1a64(payload)][payload].
  std::string record(16, '\0');
  (void)store_le(store_le(record.data(), std::uint64_t{v2.size()}),
                 fnv1a64(v2));
  write_file(path, "mtd-trace-store-log-v1\n" + record + v2);
  // A v2 superblock: page and superblock version 1, FNV-1a checksum.
  std::string superblock = store::build_superblock(4096);
  superblock[17] = 1;
  (void)store_le(superblock.data() + store::kPageHeaderBytes + 8,
                 std::uint32_t{1});
  (void)store_le(superblock.data() + 24,
                 fnv1a64(std::string_view(superblock)
                             .substr(store::kPageHeaderBytes, 20)));
  write_file(path + ".pages", superblock);

  const auto expect_rejected = [](const std::function<void()>& open,
                                  const char* found, const char* supported) {
    try {
      open();
      ADD_FAILURE() << "accepted a v2 store's " << found;
    } catch (const ParseError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(found), std::string::npos) << what;
      EXPECT_NE(what.find(supported), std::string::npos) << what;
    }
  };
  expect_rejected([&] { (void)TraceStore(path); }, "mtd-trace-store-log-v1",
                  "mtd-trace-store-log-v2");
  expect_rejected([&] { (void)TraceStoreWriter::append(path); },
                  "mtd-trace-store-log-v1", "mtd-trace-store-log-v2");
  expect_rejected([&] { (void)store::StoreManifest::from_text(v2); },
                  "mtd-trace-store-v2", "mtd-trace-store-v3");

  store::StoreManifest current;
  current.options.page_size = 4096;
  write_file(path, std::string(store::kManifestLogHeader) +
                       store::encode_manifest_record(current.to_text()));
  expect_rejected([&] { (void)TraceStore(path); }, "page version 1",
                  "at byte 0");
  expect_rejected([&] { (void)TraceStoreWriter::append(path); },
                  "page version 1", "at byte 0");
}

// A seeded sweep of single-bit flips over the payload of one leaf page and
// one fence page: the XXH64 page checksum catches every one, with the page
// id and the page's byte offset in the ParseError. Each flip is checked in
// memory through check_page; one per page also goes through the file.
TEST(TraceStoreCrash, PagePayloadBitFlipSweepIsDiagnosed) {
  const std::string path = temp_path("mtd_store_page_flip.store");
  {
    TraceStoreWriter writer = TraceStoreWriter::create(path);
    for (std::uint32_t bs = 0; bs < 1000; ++bs) {
      writer.on_event(minute_event(bs, 0, 0, 0, bs));
    }
    writer.close();
  }
  const store::SegmentInfo seg = TraceStore(path).manifest().segments.at(0);
  ASSERT_GE(seg.depth, 1u) << "the segment needs a fence page";
  const std::string pages_path = path + ".pages";
  const std::string bytes = read_file(pages_path);
  const std::size_t page_size = TraceStore(path).manifest().options.page_size;
  Rng rng(0x5eed);
  for (const std::uint64_t page_id : {seg.first_leaf + 1, seg.root}) {
    const std::size_t at = page_id * page_size;
    const std::string page = bytes.substr(at, page_size);
    std::string_view payload;
    const store::PageHeader header =
        store::check_page(page, page_id, pages_path, &payload);
    ASSERT_GT(header.payload_bytes, 0u);
    const auto expect_diagnosed = [&](const std::string& what) {
      EXPECT_NE(what.find("page " + std::to_string(page_id)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("at byte " + std::to_string(at)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find(pages_path), std::string::npos) << what;
    };
    for (int flip = 0; flip < 512; ++flip) {
      const std::size_t byte =
          store::kPageHeaderBytes + rng.uniform_index(header.payload_bytes);
      std::string flipped = page;
      flipped[byte] =
          static_cast<char>(flipped[byte] ^ (1u << rng.uniform_index(8)));
      try {
        (void)store::check_page(flipped, page_id, pages_path, nullptr);
        ADD_FAILURE() << "page " << page_id << ": accepted byte " << byte
                      << " flipped";
      } catch (const ParseError& error) {
        expect_diagnosed(error.what());
      }
      if (flip == 0) {
        write_file(pages_path, std::string(bytes).replace(at, page_size,
                                                          flipped));
        try {
          (void)TraceStore(path).verify();
          ADD_FAILURE() << "verify() accepted page " << page_id << " flipped";
        } catch (const ParseError& error) {
          expect_diagnosed(error.what());
        }
        write_file(pages_path, bytes);
      }
    }
  }
  EXPECT_EQ(TraceStore(path).verify().events, 1000u);
}

// A flipped byte inside a committed leaf page is caught by the page
// checksum, with the page's byte offset in the diagnostic.
TEST(TraceStoreCrash, CorruptLeafPageFailsChecksumWithByteOffset) {
  const std::string path = temp_path("mtd_store_bitflip.store");
  {
    TraceStoreWriter writer = TraceStoreWriter::create(path);
    for (std::uint32_t bs = 0; bs < 8; ++bs) {
      writer.on_event(minute_event(bs, 0, 0, 0, bs));
    }
    writer.close();
  }
  const std::string pages_path = path + ".pages";
  std::string bytes = read_file(pages_path);
  // First leaf page = page 1; flip a payload byte past its header.
  const std::size_t page_size = TraceStore(path).manifest().options.page_size;
  const std::size_t victim = page_size + store::kPageHeaderBytes + 7;
  ASSERT_LT(victim, bytes.size());
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x40);
  write_file(pages_path, bytes);

  TraceStore reader(path);  // superblock (page 0) is still intact
  try {
    (void)reader.verify();
    FAIL() << "verify() accepted a corrupt leaf page";
  } catch (const ParseError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("checksum"), std::string::npos) << what;
    EXPECT_NE(what.find(pages_path), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(page_size)), std::string::npos)
        << "expected the page's byte offset in: " << what;
  }
  EXPECT_THROW((void)reader.scan(3, 0, 0, [](const StreamEvent&) {}),
               ParseError);
}

// Rewrites the payload of leaf page `page_id` through `edit` and re-seals
// the page (header and checksum), so only the record rule can object.
void rewrite_leaf(const std::string& path, std::uint64_t page_id,
                  const std::function<void(std::string&)>& edit) {
  const std::string pages_path = path + ".pages";
  std::string bytes = read_file(pages_path);
  const std::size_t page_size = TraceStore(path).manifest().options.page_size;
  const std::size_t at = page_id * page_size;
  ASSERT_LE(at + page_size, bytes.size());
  const std::string context = "test";
  ByteCursor cursor(std::string_view(bytes).substr(at, page_size), at,
                    context);
  const store::PageHeader header = store::decode_page_header(cursor);
  ASSERT_EQ(header.type, store::PageType::kLeaf);
  std::string payload =
      bytes.substr(at + store::kPageHeaderBytes, header.payload_bytes);
  edit(payload);
  std::string page;
  store::append_page(page, page_id, header.type, header.entry_count, payload,
                     page_size);
  bytes.replace(at, page_size, page);
  write_file(pages_path, bytes);
}

/// Two committed segments of minute events; the first record of the first
/// leaf (page 1) is BS 1's, and its payload starts at byte
/// page_size + kPageHeaderBytes + 4 of the page file.
std::size_t make_two_segment_store(const std::string& path) {
  TraceStoreWriter writer = TraceStoreWriter::create(path);
  writer.on_event(minute_event(1, 0, 0, 0, 11));
  writer.on_event(minute_event(2, 0, 0, 0, 22));
  writer.commit();
  writer.on_event(minute_event(3, 0, 0, 0, 33));
  writer.close();
  return TraceStore(path).manifest().options.page_size +
         store::kPageHeaderBytes + 4;
}

/// scan, replay, verify and compact each raise ParseError naming the page
/// file and `byte`, with `what` in the message.
void expect_every_read_rejects(const std::string& path, std::size_t byte,
                               const std::string& what) {
  const std::string pages_path = path + ".pages";
  const auto check = [&](const char* call, const std::function<void()>& fn) {
    try {
      fn();
      ADD_FAILURE() << call << " accepted the record";
    } catch (const ParseError& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find(pages_path), std::string::npos)
          << call << ": " << message;
      EXPECT_NE(message.find("at byte " + std::to_string(byte)),
                std::string::npos)
          << call << ": " << message;
      EXPECT_NE(message.find(what), std::string::npos)
          << call << ": " << message;
    }
  };
  TraceStore reader(path);
  check("scan", [&] {
    (void)reader.scan(1, 0, 0, [](const StreamEvent&) {});
  });
  check("replay", [&] {
    struct Null final : EventSink {
      void on_event(const StreamEvent&) override {}
    } sink;
    (void)reader.replay(sink);
  });
  check("verify", [&] { (void)reader.verify(); });
  check("compact", [&] {
    TraceStoreWriter writer = TraceStoreWriter::append(path);
    (void)writer.compact();
  });
}

// A record of a kind no writer produces fails every read of its leaf:
// there is no forward-compatible skip.
TEST(TraceStoreCrash, UnknownRecordKindIsAParseError) {
  const std::string path = temp_path("mtd_store_unknown_kind.store");
  const std::size_t byte = make_two_segment_store(path);
  rewrite_leaf(path, 1, [](std::string& payload) { payload[4] = 7; });
  expect_every_read_rejects(path, byte, "unknown event kind 7");
}

// A record one byte longer than its kind encodes to fails every read of
// its leaf instead of being trimmed to its kind's length.
TEST(TraceStoreCrash, OverlongRecordIsAParseError) {
  const std::string path = temp_path("mtd_store_long_record.store");
  const std::size_t byte = make_two_segment_store(path);
  rewrite_leaf(path, 1, [](std::string& payload) {
    const std::size_t len = event_payload_bytes(EventKind::kMinute);
    (void)store_le(payload.data(), static_cast<std::uint32_t>(len + 1));
    payload.insert(4 + len, 1, '\0');
  });
  expect_every_read_rejects(path, byte, "minute record of 22 bytes, not 21");
}

}  // namespace
}  // namespace mtd
