#include <algorithm>
#include <array>
#include <fstream>
#include <functional>
#include <optional>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/fmt.hpp"
#include "events/event_codec.hpp"
#include "io/durable_file.hpp"
#include "io/json.hpp"
#include "store/trace_store.hpp"

namespace mtd::store {

namespace {

std::string pages_path_of(const std::string& path) { return path + ".pages"; }

std::string context_of(const std::string& pages_path) {
  return "trace store '" + pages_path + "'";
}

/// A whole manifest log holding one record: what create() and a log
/// rewrite publish through write_file_atomic.
std::string manifest_log_of(std::string_view record) {
  return std::string(kManifestLogHeader).append(record);
}

/// Compaction hands finished pages to the file in chunks of about this
/// size, so its buffer holds a chunk rather than the merged segment.
constexpr std::size_t kSpillBytes = std::size_t{1} << 20;

/// Packs records, added in canonical key order, into one segment: leaf
/// page images are built in place in `out` and checksummed four at a time;
/// finish() then derives the fence pages from what it kept of each leaf —
/// its key fences, never its records.
class SegmentBuilder {
 public:
  /// With `spill` set, finished pages are handed to it whenever `out`
  /// holds at least kSpillBytes of them, and the rest at finish();
  /// otherwise every page of the segment stays in `out`.
  SegmentBuilder(const StoreOptions& options, std::uint64_t first_page,
                 std::string& out,
                 std::function<void(std::string_view)> spill = {})
      : options_(options),
        capacity_(options.page_size - kPageHeaderBytes),
        first_page_(first_page),
        out_(out),
        spill_(std::move(spill)) {
    out_.clear();
  }

  /// Appends one record: its key and its stored bytes (u32 length prefix
  /// + payload).
  void add(const EventKey& key, std::string_view record) {
    if (leaves_.empty() || payload_ + record.size() > capacity_ ||
        entries_ == 0xffff) {
      open_leaf(key);
    }
    record.copy(out_.data() + leaf_at_ + kPageHeaderBytes + payload_,
                record.size());
    payload_ += record.size();
    ++entries_;
    ++events_;
    leaves_.back().max_key = key;
  }

  /// Seals the last leaf, appends the fence pages and returns the
  /// segment's index entry. At least one record must have been added.
  /// The builder is spent afterwards.
  SegmentInfo finish();

 private:
  /// One (min key, max key, child page) entry of a fence level.
  struct Fence {
    EventKey min_key;
    EventKey max_key;
    std::uint64_t child = 0;
  };

  void open_leaf(const EventKey& key) {
    if (!leaves_.empty()) seal_leaf();
    leaves_.push_back({key, key, first_page_ + leaves_.size()});
    leaf_at_ = out_.size();
    out_.resize(leaf_at_ + options_.page_size, '\0');
    payload_ = 0;
    entries_ = 0;
  }

  /// Queues the open leaf for checksumming; every fourth leaf runs the
  /// four-lane kernel over the queue.
  void seal_leaf() {
    PageHeader& header = sealed_[num_sealed_].header;
    header.page_id = first_page_ + leaves_.size() - 1;
    header.type = PageType::kLeaf;
    header.entry_count = entries_;
    header.payload_bytes = static_cast<std::uint32_t>(payload_);
    sealed_[num_sealed_].at = leaf_at_;
    if (++num_sealed_ == sealed_.size()) checksum_sealed();
  }

  void checksum_sealed() {
    std::array<std::string_view, 4> lanes{};
    for (std::size_t i = 0; i < num_sealed_; ++i) {
      lanes[i] = std::string_view(out_).substr(
          sealed_[i].at + kPageHeaderBytes, sealed_[i].header.payload_bytes);
    }
    const std::array<std::uint64_t, 4> sums = fnv1a64_x4(lanes);
    for (std::size_t i = 0; i < num_sealed_; ++i) {
      sealed_[i].header.checksum = sums[i];
      encode_page_header(sealed_[i].header, out_.data() + sealed_[i].at);
    }
    num_sealed_ = 0;
    if (spill_ && out_.size() >= kSpillBytes) {
      spill_(out_);
      out_.clear();
    }
  }

  struct Sealed {
    std::size_t at = 0;
    PageHeader header;
  };

  StoreOptions options_;
  std::size_t capacity_;
  std::uint64_t first_page_;
  std::string& out_;
  std::function<void(std::string_view)> spill_;
  std::vector<Fence> leaves_;  ///< the fences of the leaves so far
  std::uint64_t events_ = 0;
  std::size_t leaf_at_ = 0;  ///< offset of the open leaf's page in out_
  std::size_t payload_ = 0;
  std::uint16_t entries_ = 0;
  std::array<Sealed, 4> sealed_{};
  std::size_t num_sealed_ = 0;
};

SegmentInfo SegmentBuilder::finish() {
  seal_leaf();
  if (num_sealed_ > 0) checksum_sealed();
  const std::size_t page_size = options_.page_size;

  SegmentInfo seg;
  seg.first_page = first_page_;
  seg.first_leaf = seg.first_page;
  seg.num_leaves = leaves_.size();
  seg.events = events_;
  seg.min_key = leaves_.front().min_key;
  seg.max_key = leaves_.back().max_key;

  std::uint64_t next_id = seg.first_page + leaves_.size();
  // Fence levels, bottom-up: each level packs the entries of the level
  // below until a single root remains.
  std::vector<Fence> level = std::move(leaves_);
  const std::size_t fences_per_page = fence_entries_per_page(page_size);
  seg.depth = 0;
  while (level.size() > 1) {
    ++seg.depth;
    std::vector<Fence> parents;
    std::size_t begin = 0;
    while (begin < level.size()) {
      const std::size_t count =
          std::min(fences_per_page, level.size() - begin);
      std::string payload(count * kFenceEntryBytes, '\0');
      char* p = payload.data();
      for (std::size_t i = 0; i < count; ++i) {
        const Fence& f = level[begin + i];
        encode_key(f.min_key, p);
        encode_key(f.max_key, p + kKeyBytes);
        (void)store_le(p + 2 * kKeyBytes, f.child);
        p += kFenceEntryBytes;
      }
      const std::uint64_t id = next_id++;
      append_page(out_, id, PageType::kInternal,
                  static_cast<std::uint16_t>(count), payload, page_size);
      parents.push_back(
          {level[begin].min_key, level[begin + count - 1].max_key, id});
      begin += count;
    }
    level = std::move(parents);
  }
  seg.root = level.front().child;
  seg.num_pages = next_id - seg.first_page;
  if (spill_) {
    spill_(out_);
    out_.clear();
  }
  return seg;
}

}  // namespace

struct TraceStoreWriter::Impl {
  std::string path;
  std::string pages_path;
  std::string context;
  /// The page file and the manifest log, both appended to and synced
  /// through DurableFile.
  DurableFile pages_file;
  DurableFile log;
  FaultInjector* fault = nullptr;
  StoreManifest manifest;
  /// Pending events, encoded on arrival exactly as a leaf stores them:
  /// `pending_bytes` holds the records back to back (u32 length prefix +
  /// payload), `pending` each record's key and offset, and `runs` where
  /// each maximal stretch of key-ascending arrivals from one BS begins.
  struct PendingRecord {
    EventKey key;
    std::uint64_t offset = 0;
  };
  struct Run {
    std::uint32_t bs = 0;
    std::size_t begin = 0;  ///< first record (index into `pending`)
    std::size_t end = 0;    ///< one past the last; set at commit
  };
  std::string pending_bytes;
  std::vector<PendingRecord> pending;
  std::vector<Run> runs;
  std::array<std::uint64_t, kNumEventKinds> pending_by_kind{};
  std::optional<std::string> pending_checkpoint;
  bool open = false;
  /// Page images of the segment being built; reused across commits.
  std::string pages;
  /// Commit scratch, reused: the runs grouped by BS, and one BS's
  /// records in emission order.
  std::vector<Run> run_order;
  std::vector<std::size_t> group;

  void add(const StreamEvent& event);
  void emit_pending(SegmentBuilder& builder);
  void commit();
  CompactionReport compact();
  void append_manifest(const StoreManifest& next);
  void close_files() noexcept {
    pages_file.close();
    log.close();
    open = false;
  }
};

TraceStoreWriter::TraceStoreWriter(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
TraceStoreWriter::~TraceStoreWriter() = default;
TraceStoreWriter::TraceStoreWriter(TraceStoreWriter&&) noexcept = default;
TraceStoreWriter& TraceStoreWriter::operator=(TraceStoreWriter&&) noexcept =
    default;

TraceStoreWriter TraceStoreWriter::create(const std::string& path,
                                          StoreOptions options,
                                          FaultInjector* fault) {
  require(options.page_size >= kMinPageSize,
          "TraceStoreWriter: page_size must be at least " +
              std::to_string(kMinPageSize) + " bytes");
  auto impl = std::make_unique<Impl>();
  impl->path = path;
  impl->pages_path = pages_path_of(path);
  impl->context = context_of(impl->pages_path);
  impl->fault = fault;
  impl->manifest.options = options;
  // A fresh page file holding only the superblock, synced before the
  // manifest that vouches for it; write_file_atomic then syncs the
  // directory, which makes both files' names durable. create() itself is
  // not crash-atomic (it replaces an existing store destructively);
  // commit() is.
  impl->pages_file = DurableFile(impl->pages_path, DurableFile::Mode::kCreate);
  impl->pages_file.append(build_superblock(options.page_size));
  impl->pages_file.sync();
  write_file_atomic(
      path, manifest_log_of(encode_manifest_record(impl->manifest.to_text())));
  impl->log = DurableFile(path, DurableFile::Mode::kOpen);
  impl->open = true;
  return TraceStoreWriter(std::move(impl));
}

TraceStoreWriter TraceStoreWriter::append(const std::string& path,
                                          FaultInjector* fault) {
  auto impl = std::make_unique<Impl>();
  impl->path = path;
  impl->pages_path = pages_path_of(path);
  impl->context = context_of(impl->pages_path);
  impl->fault = fault;
  std::uint64_t log_bytes = 0;
  impl->manifest = StoreManifest::load(path, &log_bytes);
  {
    // Page accounting must close: the superblock, the dead_pages a
    // compaction retired and every live segment together cover exactly the
    // committed length. A manifest that fails this was not written by a
    // completed commit or compact pass.
    std::uint64_t accounted = 1 + impl->manifest.dead_pages;
    for (const SegmentInfo& seg : impl->manifest.segments) {
      accounted += seg.num_pages;
    }
    if (accounted != impl->manifest.committed_pages) {
      throw ParseError("TraceStoreWriter: manifest '" + path + "' commits " +
                       std::to_string(impl->manifest.committed_pages) +
                       " pages but superblock + dead_pages + segments "
                       "account for " +
                       std::to_string(accounted));
    }
  }
  const std::uint64_t committed = impl->manifest.committed_bytes();
  impl->pages_file = DurableFile(impl->pages_path, DurableFile::Mode::kOpen);
  const std::uint64_t size = impl->pages_file.size();
  if (size < committed) {
    throw ParseError(impl->context + ": page file is " + std::to_string(size) +
                     " bytes but the manifest commits " +
                     std::to_string(committed) + " — truncated at byte " +
                     std::to_string(size));
  }
  {
    std::ifstream in(impl->pages_path, std::ios::binary);
    std::string page(impl->manifest.options.page_size, '\0');
    in.read(page.data(), static_cast<std::streamsize>(page.size()));
    if (static_cast<std::size_t>(in.gcount()) != page.size()) {
      throw ParseError(impl->context + ": truncated superblock at byte " +
                       std::to_string(in.gcount()));
    }
    check_superblock(page, impl->manifest.options.page_size, impl->context);
  }
  // Reclaim what no complete manifest record vouches for: the page bytes
  // and the torn log record a crashed commit left behind.
  impl->pages_file.truncate(committed);
  impl->log = DurableFile(path, DurableFile::Mode::kOpen);
  impl->log.truncate(log_bytes);
  impl->open = true;
  return TraceStoreWriter(std::move(impl));
}

void TraceStoreWriter::on_event(const StreamEvent& event) {
  impl_->add(event);
}

void TraceStoreWriter::close() {
  if (impl_ == nullptr || !impl_->open) return;
  impl_->commit();
  impl_->close_files();
}

void TraceStoreWriter::commit() { impl_->commit(); }

CompactionReport TraceStoreWriter::compact() { return impl_->compact(); }

void TraceStoreWriter::set_engine_checkpoint(std::string checkpoint_json) {
  impl_->pending_checkpoint = std::move(checkpoint_json);
}

const StoreManifest& TraceStoreWriter::manifest() const noexcept {
  return impl_->manifest;
}

TraceStoreWriter::SyncedBytes TraceStoreWriter::synced_bytes()
    const noexcept {
  return {impl_->pages_file.synced(), impl_->log.synced()};
}

std::uint64_t TraceStoreWriter::events_pending() const noexcept {
  return impl_->pending.size();
}

std::uint64_t TraceStoreWriter::events_committed() const noexcept {
  return impl_->manifest.events;
}

void TraceStoreWriter::Impl::add(const StreamEvent& event) {
  ++pending_by_kind[static_cast<std::size_t>(event.kind())];
  char record[4 + kMaxEventPayloadBytes];
  const std::size_t len = encode_event_payload(event, record + 4);
  (void)store_le(record, static_cast<std::uint32_t>(len));
  if (pending.empty() || event.key.bs != pending.back().key.bs ||
      event.key < pending.back().key) {
    runs.push_back({event.key.bs, pending.size(), 0});
  }
  pending.push_back({event.key, pending_bytes.size()});
  pending_bytes.append(record, 4 + len);
}

void TraceStoreWriter::Impl::emit_pending(SegmentBuilder& builder) {
  // Canonical key order without sorting the records. Every run ascends by
  // construction, so grouping the runs by BS (a stable sort of the run
  // table) and concatenating each BS's runs in arrival order gives exactly
  // what a stable sort of all records gives, as long as each run starts at
  // or above the key where the BS's previous run ended. That holds for
  // engine streams, which emit each BS in generation order; a BS whose
  // runs interleave is stable-sorted on its own.
  for (std::size_t i = 0; i < runs.size(); ++i) {
    runs[i].end = i + 1 < runs.size() ? runs[i + 1].begin : pending.size();
  }
  run_order.assign(runs.begin(), runs.end());
  std::stable_sort(run_order.begin(), run_order.end(),
                   [](const Run& a, const Run& b) { return a.bs < b.bs; });
  const auto emit = [this, &builder](std::size_t i) {
    const std::uint64_t end = i + 1 < pending.size() ? pending[i + 1].offset
                                                     : pending_bytes.size();
    builder.add(pending[i].key,
                std::string_view(pending_bytes)
                    .substr(pending[i].offset, end - pending[i].offset));
  };
  for (std::size_t g = 0; g < run_order.size();) {
    std::size_t h = g + 1;
    bool ordered = true;
    for (; h < run_order.size() && run_order[h].bs == run_order[g].bs; ++h) {
      ordered = ordered && !(pending[run_order[h].begin].key <
                             pending[run_order[h - 1].end - 1].key);
    }
    group.clear();
    for (std::size_t r = g; r < h; ++r) {
      for (std::size_t i = run_order[r].begin; i < run_order[r].end; ++i) {
        group.push_back(i);
      }
    }
    if (!ordered) {
      std::stable_sort(group.begin(), group.end(),
                       [this](std::size_t a, std::size_t b) {
                         return pending[a].key < pending[b].key;
                       });
    }
    for (const std::size_t i : group) emit(i);
    g = h;
  }
}

void TraceStoreWriter::Impl::commit() {
  const bool checkpoint_dirty =
      pending_checkpoint.has_value() &&
      *pending_checkpoint != manifest.engine_checkpoint;
  if (pending.empty() && !checkpoint_dirty) return;
  if (!open) {
    throw IoError("TraceStoreWriter: commit on a closed store '" + path + "'",
                  false);
  }

  StoreManifest next = manifest;
  if (pending_checkpoint.has_value()) {
    next.engine_checkpoint = *pending_checkpoint;
  }

  pages.clear();
  if (!pending.empty()) {
    // Canonical trace order; equal keys (which do not occur in engine
    // streams, but are not rejected) keep arrival order.
    SegmentBuilder builder(manifest.options, manifest.committed_pages, pages);
    emit_pending(builder);
    SegmentInfo seg = builder.finish();
    next.committed_pages += seg.num_pages;
    next.events += seg.events;
    for (std::size_t k = 0; k < kNumEventKinds; ++k) {
      next.events_by_kind[k] += pending_by_kind[k];
    }
    next.segments.push_back(std::move(seg));
  }

  // The commit sequence: append pages past the committed length, sync
  // them, then append the manifest record that vouches for them and sync
  // the log. A failure (or injected fault) anywhere before the record is
  // complete leaves the previous record as the last one — the appended
  // pages are invisible garbage and the pending events are kept for a
  // retry, which first cuts the pages back to the committed length.
  pages_file.truncate(manifest.committed_bytes());
  fault_fire(fault, "store.commit.pages");
  pages_file.append(pages);
  fault_fire(fault, "store.commit.sync");
  pages_file.sync();
  fault_fire(fault, "store.commit.manifest");
  append_manifest(next);

  manifest = std::move(next);
  pending.clear();
  pending_bytes.clear();
  runs.clear();
  pending_by_kind = {};
  pending_checkpoint.reset();
}

CompactionReport TraceStoreWriter::Impl::compact() {
  CompactionReport report;
  report.segments_before = manifest.segments.size();
  report.segments_after = manifest.segments.size();
  if (manifest.segments.size() < 2) return report;  // nothing to merge
  if (!open) {
    throw IoError("TraceStoreWriter: compact on a closed store '" + path +
                  "'", false);
  }

  StoreManifest next = manifest;
  std::uint64_t retired = 0;
  for (const SegmentInfo& seg : manifest.segments) retired += seg.num_pages;

  // Same publication sequence as commit(): the merged segment is appended
  // past the committed length and synced, then the manifest record that
  // swaps it in (and retires the old segments) is appended to the log. A
  // crash anywhere leaves the previous record, under which the old
  // segments are still the live index and the appended bytes are
  // invisible. The pages stream to the file as the k-way merge of the
  // committed records fills them: the merged segment is never held whole.
  pages_file.truncate(manifest.committed_bytes());
  fault_fire(fault, "store.compact.pages");
  SegmentBuilder builder(
      manifest.options, manifest.committed_pages, pages,
      [this](std::string_view bytes) { pages_file.append(bytes); });
  {
    // The on-disk manifest is exactly `manifest` (pending events are
    // invisible until their commit), and the reader's merge yields the
    // records in canonical key order — the merged segment's record order
    // equals what any reader already observes.
    TraceStore reader(path);
    const std::uint64_t replayed = reader.replay_records(
        [&builder](const EventKey& key, std::string_view record) {
          builder.add(key, record);
        });
    if (replayed != manifest.events) {
      throw ParseError(context + ": compaction replayed " +
                       std::to_string(replayed) + " events but the manifest "
                       "commits " + std::to_string(manifest.events));
    }
  }
  const SegmentInfo seg = builder.finish();
  next.committed_pages += seg.num_pages;
  next.dead_pages += retired;
  next.segments.assign(1, seg);
  report.segments_after = 1;
  report.events = seg.events;
  report.pages_written = seg.num_pages;
  report.pages_retired = retired;

  fault_fire(fault, "store.compact.sync");
  pages_file.sync();
  fault_fire(fault, "store.compact.manifest");
  append_manifest(next);

  manifest = std::move(next);
  return report;
}

void TraceStoreWriter::Impl::append_manifest(const StoreManifest& next) {
  // Appending keeps commits off the rename path: replacing a file frees
  // the replaced file's blocks, which costs tens of milliseconds on ext4
  // (DESIGN.md section 12). Once the log would outgrow its cap it is
  // rewritten as this one record instead, so a reader never checksums
  // more than the cap; that rename is rare.
  const std::string record = encode_manifest_record(next.to_text());
  const std::uint64_t cap = std::max<std::uint64_t>(
      kManifestLogRewriteBytes, std::uint64_t{8} * record.size());
  try {
    if (log.size() + record.size() <= cap) {
      log.append(record);
      log.sync();
    } else {
      write_file_atomic(path, manifest_log_of(record));
      log = DurableFile(path, DurableFile::Mode::kOpen);
    }
  } catch (const IoError&) {
    // Whether the record is durable, or which file the log fd now names,
    // only a reopen can tell.
    close_files();
    throw;
  }
}

}  // namespace mtd::store
