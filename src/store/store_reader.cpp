#include <algorithm>
#include <array>
#include <fstream>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "common/fmt.hpp"
#include "events/event_codec.hpp"
#include "store/trace_store.hpp"

namespace mtd::store {

namespace {

/// The largest possible key: upper bound of unbounded scans.
constexpr EventKey max_key() noexcept {
  return EventKey{0xffffffffu, 0xffff, 0xffff, ~std::uint64_t{0}};
}

}  // namespace

struct TraceStore::Impl {
  std::string path;
  std::string pages_path;
  std::string context;
  std::ifstream file;
  std::uint64_t file_size = 0;
  StoreManifest manifest;
  StoreReadTelemetry telemetry;
  std::string page_buf;

  struct Page {
    PageHeader header;
    std::string_view payload;  ///< into the buffer the page was read into
  };

  /// Reads up to four committed pages into `buf` (one read per run of
  /// consecutive ids) and fully validates each — several at once through
  /// check_pages' four-lane checksums — counting them in the telemetry.
  /// `expect` guards against index corruption pointing a descent at the
  /// wrong page kind.
  void load_pages(std::span<const std::uint64_t> ids, PageType expect,
                  std::string& buf, std::span<Page> out) {
    const std::size_t page_size = manifest.options.page_size;
    buf.resize(ids.size() * page_size);
    std::array<std::string_view, 4> images;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] >= manifest.committed_pages) {
        throw ParseError(context + ": page id " + std::to_string(ids[i]) +
                         " is beyond the " +
                         std::to_string(manifest.committed_pages) +
                         " committed pages");
      }
      if (i == 0 || ids[i] != ids[i - 1] + 1) {
        file.clear();
        file.seekg(static_cast<std::streamoff>(ids[i] * page_size));
      }
      file.read(buf.data() + i * page_size,
                static_cast<std::streamsize>(page_size));
      if (static_cast<std::size_t>(file.gcount()) != page_size) {
        throw ParseError(
            context + ": truncated page " + std::to_string(ids[i]) +
            " at byte " +
            std::to_string(ids[i] * page_size +
                           static_cast<std::size_t>(file.gcount())));
      }
      images[i] = std::string_view(buf).substr(i * page_size, page_size);
    }
    std::array<PageHeader, 4> headers;
    std::array<std::string_view, 4> payloads;
    check_pages(std::span(images).first(ids.size()), ids, context, headers,
                payloads);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (headers[i].type != expect) {
        throw ParseError(context + ": page " + std::to_string(ids[i]) +
                         " is a " + std::string(to_string(headers[i].type)) +
                         " page where a " + std::string(to_string(expect)) +
                         " page was indexed, at byte " +
                         std::to_string(ids[i] * page_size));
      }
      out[i] = Page{headers[i], payloads[i]};
      ++telemetry.pages_read;
      switch (expect) {
        case PageType::kLeaf: ++telemetry.leaf_pages_read; break;
        case PageType::kInternal: ++telemetry.internal_pages_read; break;
        case PageType::kSuper: break;
      }
    }
  }

  /// One page into page_buf; the Page is invalidated by the next call.
  Page load_page(std::uint64_t page_id, PageType expect) {
    Page page;
    load_pages(std::span(&page_id, 1), expect, page_buf, std::span(&page, 1));
    return page;
  }

  /// Leaf page ids [first, end). A segment's leaves are written
  /// consecutively in key order, so the candidates of any key range form
  /// one run, however large the segment.
  struct LeafRun {
    std::uint64_t first;
    std::uint64_t end;
  };

  static void append_leaf(std::vector<LeafRun>& out, std::uint64_t leaf) {
    if (!out.empty() && out.back().end == leaf) {
      ++out.back().end;
    } else {
      out.push_back({leaf, leaf + 1});
    }
  }

  /// Collects, in key order, the leaves of `seg` whose fences overlap
  /// [lo, hi], descending the segment's fence tree and counting pruned
  /// leaf candidates.
  void collect_leaves(const SegmentInfo& seg, const EventKey& lo,
                      const EventKey& hi, std::vector<LeafRun>& out) {
    out.clear();
    if (seg.num_leaves == 0 || seg.min_key > hi || seg.max_key < lo) return;
    if (seg.depth == 0) {
      append_leaf(out, seg.root);
      return;
    }
    descend(seg.root, seg.depth, lo, hi, out);
  }

  void descend(std::uint64_t page_id, std::uint32_t level, const EventKey& lo,
               const EventKey& hi, std::vector<LeafRun>& out) {
    const Page page = load_page(page_id, PageType::kInternal);
    struct Fence {
      EventKey min_key;
      EventKey max_key;
      std::uint64_t child;
    };
    // Decode the fences up front: page_buf is invalidated by child loads.
    std::vector<Fence> fences;
    fences.reserve(page.header.entry_count);
    ByteCursor cursor(page.payload,
                      page_id * manifest.options.page_size + kPageHeaderBytes,
                      context);
    for (std::uint16_t i = 0; i < page.header.entry_count; ++i) {
      Fence fence;
      fence.min_key = decode_key(cursor, "fence min key");
      fence.max_key = decode_key(cursor, "fence max key");
      fence.child = cursor.u64("fence child");
      fences.push_back(fence);
    }
    for (const Fence& fence : fences) {
      if (fence.min_key > hi || fence.max_key < lo) {
        if (level == 1) ++telemetry.leaves_skipped_fence;
        continue;
      }
      if (level == 1) {
        append_leaf(out, fence.child);
      } else {
        descend(fence.child, level - 1, lo, hi, out);
      }
    }
  }

  /// A merge's scope: keys in [lo, hi].
  struct Query {
    EventKey lo;
    EventKey hi;
  };
  static Query everything() { return {EventKey{}, max_key()}; }

  /// One segment's side of a merge: its candidate leaves, read up to four
  /// at a time, and the loaded leaves' records that match the query —
  /// indexed in place, decoded only when delivered.
  struct SegmentCursor {
    struct Record {
      EventKey key;
      std::uint32_t offset = 0;  ///< of its length prefix, in `pages`
      std::uint32_t size = 0;    ///< length prefix included
    };
    std::vector<LeafRun> leaves;  ///< runs' `first` advance as leaves load
    std::size_t run_index = 0;
    std::string pages;
    std::vector<Record> records;
    std::size_t pos = 0;

    [[nodiscard]] bool exhausted() const noexcept {
      return pos >= records.size() && run_index >= leaves.size();
    }
    [[nodiscard]] const EventKey& head_key() const noexcept {
      return records[pos].key;
    }
    /// The head record's stored bytes (u32 length prefix + payload).
    [[nodiscard]] std::string_view head() const noexcept {
      return std::string_view(pages).substr(records[pos].offset,
                                            records[pos].size);
    }
  };

  /// Appends to `out` the records of one loaded leaf (its payload starts
  /// at byte `at` of the cursor's page buffer) whose keys fall in the
  /// query's range. Every record is validated, in range or not: its length
  /// prefix against the page, then the record rule (check_event_record),
  /// which makes decoding a delivered record infallible.
  void index_leaf(const Page& page, std::size_t at, const Query& query,
                  std::vector<SegmentCursor::Record>& out) {
    const std::size_t base =
        page.header.page_id * manifest.options.page_size + kPageHeaderBytes;
    ByteCursor cursor(page.payload, base, context);
    for (std::uint16_t i = 0; i < page.header.entry_count; ++i) {
      const std::size_t start = cursor.pos();
      const std::uint32_t len = cursor.u32("record length");
      if (len > cursor.remaining()) {
        throw ParseError(context + ": record at byte " +
                         std::to_string(base + start) + " claims " +
                         std::to_string(len) + " bytes but only " +
                         std::to_string(cursor.remaining()) +
                         " remain in page " +
                         std::to_string(page.header.page_id));
      }
      ByteCursor record(page.payload.substr(start + 4, len),
                        base + start + 4, context);
      cursor.skip(len, "event record");
      (void)check_event_record(record);
      record.skip(1, "event kind");
      const EventKey key = decode_key(record, "event key");
      if (key < query.lo || query.hi < key) continue;
      out.push_back({key, static_cast<std::uint32_t>(at + start), 4 + len});
    }
  }

  /// Loads candidate leaves, up to four at a time, until the cursor holds
  /// a matching record or runs out.
  void refill(SegmentCursor& cursor, const Query& query) {
    while (cursor.pos >= cursor.records.size() &&
           cursor.run_index < cursor.leaves.size()) {
      std::array<std::uint64_t, 4> batch{};
      std::size_t count = 0;
      while (count < batch.size() &&
             cursor.run_index < cursor.leaves.size()) {
        LeafRun& run = cursor.leaves[cursor.run_index];
        batch[count++] = run.first++;
        if (run.first == run.end) ++cursor.run_index;
      }
      std::array<Page, 4> pages;
      load_pages(std::span(batch).first(count), PageType::kLeaf,
                 cursor.pages, pages);
      cursor.records.clear();
      cursor.pos = 0;
      for (std::size_t i = 0; i < count; ++i) {
        index_leaf(pages[i], i * manifest.options.page_size + kPageHeaderBytes,
                   query, cursor.records);
      }
    }
  }

  /// K-way merge of every segment over `query` in canonical key order,
  /// handing each record's key and stored bytes to `fn`. The cursors sit
  /// in a binary heap keyed by (head key, segment index): O(log k) per
  /// record over k segments, and equal keys leave in segment order — the
  /// pick a first-minimum scan makes.
  std::uint64_t merge(
      const Query& query,
      const std::function<void(const EventKey&, std::string_view)>& fn) {
    std::vector<SegmentCursor> cursors;
    cursors.reserve(manifest.segments.size());
    for (const SegmentInfo& seg : manifest.segments) {
      SegmentCursor cursor;
      collect_leaves(seg, query.lo, query.hi, cursor.leaves);
      refill(cursor, query);
      if (!cursor.exhausted()) cursors.push_back(std::move(cursor));
    }
    // Cursors are in segment order, so their index breaks key ties.
    const auto before = [&cursors](std::size_t a, std::size_t b) {
      const EventKey& ka = cursors[a].head_key();
      const EventKey& kb = cursors[b].head_key();
      return ka < kb || (ka == kb && a < b);
    };
    std::vector<std::size_t> heap(cursors.size());
    for (std::size_t i = 0; i < heap.size(); ++i) heap[i] = i;
    const auto sift_down = [&heap, &before](std::size_t at) {
      const std::size_t item = heap[at];
      for (;;) {
        std::size_t child = 2 * at + 1;
        if (child >= heap.size()) break;
        if (child + 1 < heap.size() && before(heap[child + 1], heap[child])) {
          ++child;
        }
        if (!before(heap[child], item)) break;
        heap[at] = heap[child];
        at = child;
      }
      heap[at] = item;
    };
    for (std::size_t i = heap.size() / 2; i-- > 0;) sift_down(i);
    std::uint64_t delivered = 0;
    while (!heap.empty()) {
      SegmentCursor& cursor = cursors[heap.front()];
      fn(cursor.head_key(), cursor.head());
      ++delivered;
      ++cursor.pos;
      refill(cursor, query);
      if (cursor.exhausted()) {
        heap.front() = heap.back();
        heap.pop_back();
      }
      if (!heap.empty()) sift_down(0);
    }
    return delivered;
  }

  /// The merge decoding each record into an event for `fn`.
  std::uint64_t merge_events(
      const Query& query, const std::function<void(const StreamEvent&)>& fn) {
    return merge(query, [this, &fn](const EventKey&, std::string_view record) {
      fn(decode_event_payload(ByteCursor(record.substr(4), 0, context)));
    });
  }
};

TraceStore::TraceStore(const std::string& path) : impl_(new Impl) {
  impl_->path = path;
  impl_->pages_path = path + ".pages";
  impl_->context = "trace store '" + impl_->pages_path + "'";
  impl_->manifest = StoreManifest::load(path);
  impl_->file.open(impl_->pages_path, std::ios::binary);
  if (!impl_->file) {
    throw IoError("TraceStore: cannot open '" + impl_->pages_path + "'");
  }
  impl_->file.seekg(0, std::ios::end);
  impl_->file_size = static_cast<std::uint64_t>(impl_->file.tellg());
  const std::uint64_t committed = impl_->manifest.committed_bytes();
  if (impl_->file_size < committed) {
    throw ParseError(impl_->context + ": page file is " +
                     std::to_string(impl_->file_size) +
                     " bytes but the manifest commits " +
                     std::to_string(committed) + " — truncated at byte " +
                     std::to_string(impl_->file_size));
  }
  const Impl::Page super = impl_->load_page(0, PageType::kSuper);
  (void)super;
  check_superblock(impl_->page_buf, impl_->manifest.options.page_size,
                   impl_->context);
  impl_->telemetry = {};
}

TraceStore::~TraceStore() = default;
TraceStore::TraceStore(TraceStore&&) noexcept = default;
TraceStore& TraceStore::operator=(TraceStore&&) noexcept = default;

const StoreManifest& TraceStore::manifest() const noexcept {
  return impl_->manifest;
}

std::uint64_t TraceStore::scan(
    std::uint32_t bs, std::uint16_t day_lo, std::uint16_t day_hi,
    const std::function<void(const StreamEvent&)>& fn) {
  const EventKey lo{bs, day_lo, 0, 0};
  const EventKey hi{bs, day_hi, 0xffff, ~std::uint64_t{0}};
  return impl_->merge_events({lo, hi}, fn);
}

std::uint64_t TraceStore::replay(EventSink& sink) {
  return impl_->merge_events(
      Impl::everything(),
      [&sink](const StreamEvent& event) { sink.on_event(event); });
}

std::uint64_t TraceStore::replay_records(
    const std::function<void(const EventKey&, std::string_view)>& fn) {
  return impl_->merge(Impl::everything(), fn);
}

StoreVerifyReport TraceStore::verify() {
  StoreVerifyReport report;
  report.pages = impl_->manifest.committed_pages;
  // Superblock plus the pages compaction retired: dead ranges hold the
  // superseded segments' bytes, which no live index references — they are
  // accounted, not walked.
  std::uint64_t accounted = 1 + impl_->manifest.dead_pages;
  std::vector<Impl::SegmentCursor::Record> records;
  for (const SegmentInfo& seg : impl_->manifest.segments) {
    std::uint64_t counted = 0;
    for (std::uint64_t i = 0; i < seg.num_leaves; ++i) {
      const Impl::Page page =
          impl_->load_page(seg.first_leaf + i, PageType::kLeaf);
      counted += page.header.entry_count;
      records.clear();
      impl_->index_leaf(page, kPageHeaderBytes, Impl::everything(), records);
    }
    if (counted != seg.events) {
      throw ParseError(impl_->context + ": segment at page " +
                       std::to_string(seg.first_page) + " indexes " +
                       std::to_string(seg.events) +
                       " events but its leaves hold " +
                       std::to_string(counted));
    }
    // The fence pages follow the segment's leaves.
    for (std::uint64_t i = seg.num_leaves; i < seg.num_pages; ++i) {
      (void)impl_->load_page(seg.first_leaf + i, PageType::kInternal);
    }
    report.leaf_pages += seg.num_leaves;
    report.events += seg.events;
    ++report.segments;
    accounted += seg.num_pages;
  }
  if (accounted != impl_->manifest.committed_pages) {
    throw ParseError(impl_->context + ": manifest commits " +
                     std::to_string(impl_->manifest.committed_pages) +
                     " pages but its segments account for " +
                     std::to_string(accounted));
  }
  return report;
}

const StoreReadTelemetry& TraceStore::telemetry() const noexcept {
  return impl_->telemetry;
}

void TraceStore::reset_telemetry() noexcept { impl_->telemetry = {}; }

}  // namespace mtd::store
