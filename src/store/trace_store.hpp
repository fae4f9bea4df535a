// Queryable on-disk trace store: a persistent, indexed home for generated
// StreamEvents (DESIGN.md section 12).
//
// A 45-day × 100k-BS synthetic run used to be consumable only as flat
// event logs or in-memory aggregates; every downstream question meant
// regenerating or rescanning everything. The store turns the stream into a
// servable artifact: TraceStoreWriter is just another EventSink — batches
// flow in, commits seal them into immutable sorted B-tree segments — and
// TraceStore serves (bs, day-range) scans and full replay in canonical key
// order, pruning cold leaves with the segments' key fences and counting
// every page it touches in read telemetry. Every leaf record a read
// touches must pass the event codec's record rule (check_event_record):
// a record of an unknown kind or the wrong length fails the read.
//
// Durability contract: a commit appends pages beyond the committed length
// and fdatasyncs the page file, then appends one checksummed record to the
// manifest log and fdatasyncs the log; it never renames. A commit that
// returned survives a killed process and a power cut. A crash, power cut
// or injected fault at ANY point of that sequence leaves the store opening
// at the previous committed state: page bytes past the committed length
// and a torn last log record are invisible, and the next writer open
// reclaims both. Compaction publishes the same way. Only when the log
// would outgrow kManifestLogRewriteBytes is it replaced by its newest
// record through write_file_atomic (fdatasync, rename, directory fsync).
// A pages file shorter than the committed length, a log record whose
// header check or checksum disagrees, a page whose checksum disagrees, or
// a leaf record the record rule rejects is reported with path and byte
// offset — never silently skipped.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "events/event_sink.hpp"
#include "events/stream_event.hpp"
#include "store/format.hpp"

namespace mtd {
class FaultInjector;
}  // namespace mtd

namespace mtd::store {

/// Layout policy, fixed at store creation and recorded in the manifest.
struct StoreOptions {
  /// Page (== B-tree node) size in bytes; the fan-out policy knob. 4 KiB
  /// holds ~100 event records per leaf / ~100 fences per internal node.
  std::size_t page_size = 4096;
};

/// One immutable sorted run, sealed by one commit.
struct SegmentInfo {
  std::uint64_t first_page = 0;   ///< first page of the segment
  std::uint64_t num_pages = 0;    ///< total pages (leaves, then internals)
  std::uint64_t first_leaf = 0;
  std::uint64_t num_leaves = 0;
  std::uint64_t root = 0;   ///< root page (== the leaf when depth 0)
  std::uint32_t depth = 0;  ///< internal levels above the leaves
  std::uint64_t events = 0;
  EventKey min_key;
  EventKey max_key;
};

/// The committed state of a store, as recorded in the manifest file.
struct StoreManifest {
  StoreOptions options;
  /// Pages vouched for, superblock included; committed bytes is this times
  /// the page size. Anything beyond is uncommitted garbage.
  std::uint64_t committed_pages = 1;
  /// Committed pages no live segment references: the page ranges of
  /// segments a compaction pass superseded. They stay inside the committed
  /// length (rewriting the page file in place would break the append-only
  /// crash protocol) but are never read; verify() accounts them via
  /// 1 + dead_pages + sum(segment pages) == committed_pages. Serialized
  /// only when non-zero, so pre-compaction manifests stay readable.
  std::uint64_t dead_pages = 0;
  std::uint64_t events = 0;
  std::array<std::uint64_t, kNumEventKinds> events_by_kind{};
  /// Opaque engine checkpoint document (JSON text), published atomically
  /// with the data it covers: run_engine_into_store records the engine's
  /// checkpoint here at every commit, so after a crash the store itself
  /// carries the exact resume point for its committed events, and it is
  /// the only resume point a store run reads — no separate checkpoint file
  /// or cursor can drift from the data. Empty = never set. The store layer
  /// treats it as a blob; serialized only when non-empty.
  std::string engine_checkpoint;
  std::vector<SegmentInfo> segments;

  [[nodiscard]] std::uint64_t committed_bytes() const noexcept {
    return committed_pages * options.page_size;
  }

  /// Serialization to/from the manifest JSON document. Like the engine
  /// checkpoint, 64-bit counters are hex strings (JSON numbers are doubles
  /// and would round above 2^53).
  [[nodiscard]] std::string to_text() const;
  [[nodiscard]] static StoreManifest from_text(std::string_view text);

  /// Loads the manifest log at `path`: checks every record's checksum and
  /// parses the last complete record. A torn tail (a record cut short by a
  /// crash) is ignored; when `log_bytes` is set it receives the length of
  /// the log before that tail. A checksum mismatch, a log with no complete
  /// record, or a record that does not parse raises ParseError naming the
  /// file, its size and the byte offset.
  [[nodiscard]] static StoreManifest load(const std::string& path,
                                          std::uint64_t* log_bytes = nullptr);
};

/// Counters of what a TraceStore actually touched; the proof that the
/// index prunes (tests assert on them).
struct StoreReadTelemetry {
  std::uint64_t pages_read = 0;  ///< all page reads, any type
  std::uint64_t leaf_pages_read = 0;
  std::uint64_t internal_pages_read = 0;
  /// Leaf candidates rejected by parent fences during a descent.
  std::uint64_t leaves_skipped_fence = 0;
  /// Always 0: the store has no per-leaf filters since the v2 format. Kept
  /// only while the benchmark still reports it.
  std::uint64_t leaves_skipped_bloom = 0;
};

/// Outcome of one TraceStoreWriter::compact pass.
struct CompactionReport {
  std::uint64_t segments_before = 0;
  std::uint64_t segments_after = 0;
  std::uint64_t events = 0;         ///< events in the merged segment
  std::uint64_t pages_written = 0;  ///< pages of the merged segment
  std::uint64_t pages_retired = 0;  ///< pages newly counted as dead
};

/// Outcome of TraceStore::verify: every live committed page walked and
/// proven (dead page ranges are skipped — no live index references them).
struct StoreVerifyReport {
  std::uint64_t pages = 0;
  std::uint64_t leaf_pages = 0;
  std::uint64_t events = 0;
  std::uint64_t segments = 0;
};

/// Ingest side: buffers events, seals a sorted segment per commit().
/// Implements EventSink so it drops into any sink composition (fan-out,
/// filter, engine consumer). Single-threaded like every sink.
class TraceStoreWriter final : public EventSink {
 public:
  /// Creates a new empty store at `path` (manifest log) + `path`.pages,
  /// replacing any existing one, and syncs both files and their directory.
  /// `fault` (tests only) arms the store.commit.* failure points.
  static TraceStoreWriter create(const std::string& path,
                                 StoreOptions options = {},
                                 FaultInjector* fault = nullptr);

  /// Reopens an existing store for appending. Validates manifest and page
  /// file against each other (ParseError with path + byte offset on a
  /// truncated page file) and discards what a crashed commit left behind:
  /// pages past the committed length and a torn last log record.
  static TraceStoreWriter append(const std::string& path,
                                 FaultInjector* fault = nullptr);

  ~TraceStoreWriter() override;
  TraceStoreWriter(TraceStoreWriter&&) noexcept;
  TraceStoreWriter& operator=(TraceStoreWriter&&) noexcept;

  /// Buffers one event for the next commit.
  void on_event(const StreamEvent& event) override;
  /// Commits anything pending, then closes the page file. Throws when the
  /// final commit cannot be made durable.
  void close() override;

  /// Seals buffered events into a new sorted segment and publishes it:
  /// append pages → fdatasync them → append the manifest record →
  /// fdatasync the log. On any failure the store stays at its previous committed
  /// state and the buffered events are kept, so a caller may retry (an I/O
  /// error on the manifest log closes the writer instead: reopen the
  /// store).
  /// No-op when nothing is pending and the engine checkpoint is unchanged.
  void commit();

  /// Merges every committed segment into one — rebuilt leaves and fences,
  /// one fence tree to descend — published through the same append → sync
  /// → manifest record sequence as commit() (fault points
  /// store.compact.pages / .sync / .manifest). The superseded
  /// segments' pages are retired into StoreManifest::dead_pages; a crash at
  /// any point leaves the previous manifest, under which every old segment
  /// is still live. Pending (uncommitted) events are untouched. No-op when
  /// fewer than two segments are committed.
  CompactionReport compact();

  /// Records the engine checkpoint blob (JSON text) to publish with the
  /// next commit(); data and resume point then become durable in the same
  /// manifest record. An empty string clears the recorded checkpoint.
  void set_engine_checkpoint(std::string checkpoint_json);

  [[nodiscard]] const StoreManifest& manifest() const noexcept;
  [[nodiscard]] std::uint64_t events_pending() const noexcept;

  /// Lengths of the page file and of the manifest log that the writer has
  /// fdatasynced. A power cut may lose any byte past them, and nothing
  /// before them: the acknowledged commits all lie within.
  struct SyncedBytes {
    std::uint64_t pages = 0;
    std::uint64_t manifest = 0;
  };
  [[nodiscard]] SyncedBytes synced_bytes() const noexcept;
  [[nodiscard]] std::uint64_t events_committed() const noexcept;

 private:
  struct Impl;
  explicit TraceStoreWriter(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Query side: opens the committed state of a store (a concurrently
/// appending writer never disturbs it — segments are immutable and a
/// manifest record is checksummed, so a half-appended one reads as a torn
/// tail). Not thread-safe; one TraceStore per reader thread.
class TraceStore {
 public:
  /// Opens and validates manifest + page file. ParseError (path + byte
  /// offset / sizes) on truncation or a corrupt superblock.
  explicit TraceStore(const std::string& path);
  ~TraceStore();
  TraceStore(TraceStore&&) noexcept;
  TraceStore& operator=(TraceStore&&) noexcept;

  [[nodiscard]] const StoreManifest& manifest() const noexcept;

  /// Streams every event with bs == `bs` and day in [day_lo, day_hi] to
  /// `fn`, in key order (segments are merged). Returns the event count.
  [[nodiscard]] std::uint64_t scan(
      std::uint32_t bs, std::uint16_t day_lo, std::uint16_t day_hi,
      const std::function<void(const StreamEvent&)>& fn);

  /// Streams the whole store in canonical (bs, day, minute, seq) order
  /// into `sink` — the replay-from-store path. Feeding the result through
  /// the aggregation layer reproduces a direct generation run bit-exactly:
  /// whole cells arrive in (BS, day) order, each in its generation order,
  /// as MeasurementDataset::finalize requires.
  [[nodiscard]] std::uint64_t replay(EventSink& sink);

  /// replay() without decoding: streams every committed record, in the
  /// same order, to `fn` as its key and its stored bytes (u32 length
  /// prefix + payload, exactly as held in a leaf). Each record passes the
  /// record rule, so a corrupt one raises the ParseError a decoding read
  /// would. The compaction path.
  [[nodiscard]] std::uint64_t replay_records(
      const std::function<void(const EventKey&, std::string_view)>& fn);

  /// Walks every committed page and validates header + checksum; checks
  /// every leaf record against the record rule and recounts events per
  /// segment. Throws ParseError with path and byte offset at the first
  /// corrupt page or record.
  [[nodiscard]] StoreVerifyReport verify();

  [[nodiscard]] const StoreReadTelemetry& telemetry() const noexcept;
  void reset_telemetry() noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mtd::store
