// Crash-safety gate of the trace store (DESIGN.md section 12): for every
// armed fault in the commit path and for a mid-write truncation at any byte
// offset, a reader over the files sees either the previous committed state
// or a typed error naming the file and byte offset — never silently
// corrupted data.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "io/json.hpp"
#include "store/format.hpp"
#include "store/trace_store.hpp"
#include "test_helpers.hpp"

namespace mtd {
namespace {

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
  EXPECT_TRUE(reader.get(EventKey{1, 0, 0, 0}).has_value());
  EXPECT_TRUE(reader.get(EventKey{2, 0, 0, 0}).has_value());
  EXPECT_FALSE(reader.get(EventKey{3, 0, 0, 0}).has_value());
  const auto report = reader.verify();
  EXPECT_EQ(report.events, 2u);
}

void expect_both_commits(const std::string& path) {
  TraceStore reader(path);
  EXPECT_EQ(reader.manifest().events, 4u);
  EXPECT_EQ(reader.manifest().segments.size(), 2u);
  for (std::uint32_t bs = 1; bs <= 4; ++bs) {
    EXPECT_TRUE(reader.get(EventKey{bs, 0, 0, 0}).has_value()) << bs;
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

// Manifest prefix truncation: every proper prefix of the manifest JSON must
// fail to load with a ParseError naming the manifest path and its size.
TEST(TraceStoreCrash, ManifestPrefixTruncationIsDiagnosed) {
  const std::string path = temp_path("mtd_store_manifest_trunc.store");
  {
    TraceStoreWriter writer = TraceStoreWriter::create(path);
    writer.on_event(minute_event(1, 0, 0, 0, 1));
    writer.close();
  }
  const std::string manifest_bytes = read_file(path);
  for (const double fraction : {0.0, 0.25, 0.5, 0.9}) {
    const auto cut =
        static_cast<std::size_t>(fraction * manifest_bytes.size());
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
  write_file(path, manifest_bytes);
  EXPECT_EQ(TraceStore(path).verify().events, 1u);
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
  const Json good = Json::parse(read_file(path));
  ASSERT_EQ(store::StoreManifest::from_text(good.dump(2)).events, 1u);

  const std::vector<std::pair<std::string, std::vector<const char*>>>
      fields = {
          {"StoreManifest.page_size", {"page_size"}},
          {"StoreManifest.segment.bloom_bytes", {"segments", "bloom_bytes"}},
          {"StoreManifest.segment.bloom_hashes", {"segments", "bloom_hashes"}},
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
  EXPECT_THROW((void)reader.get(EventKey{3, 0, 0, 0}), ParseError);
}

}  // namespace
}  // namespace mtd
