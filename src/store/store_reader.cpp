#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <exception>
#include <span>
#include <system_error>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/fmt.hpp"
#include "common/mutex.hpp"
#include "events/event_codec.hpp"
#include "store/trace_store.hpp"

namespace mtd::store {

namespace {

/// The largest possible key: upper bound of unbounded scans.
constexpr EventKey max_key() noexcept {
  return EventKey{0xffffffffu, 0xffff, 0xffff, ~std::uint64_t{0}};
}

/// Leaves a compaction merge keeps loaded ahead of it, besides the one leaf
/// it holds open per segment.
constexpr std::size_t kPrefetchLeaves = 64;

}  // namespace

struct TraceStore::Impl {
  std::string path;
  std::string pages_path;
  std::string context;
  /// The page file, read with pread only: the compaction helpers share it.
  int fd = -1;
  StoreManifest manifest;
  StoreReadTelemetry telemetry;
  std::string page_buf;

  Impl() = default;
  Impl(const Impl&) = delete;
  Impl& operator=(const Impl&) = delete;
  ~Impl() {
    if (fd >= 0) ::close(fd);
  }

  struct Page {
    PageHeader header;
    std::string_view payload;  ///< into the buffer the page was read into
  };

  /// Guards every read against index corruption pointing past the data.
  void check_committed(std::uint64_t page_id) const {
    if (page_id >= manifest.committed_pages) {
      throw ParseError(context + ": page id " + std::to_string(page_id) +
                       " is beyond the " +
                       std::to_string(manifest.committed_pages) +
                       " committed pages");
    }
  }

  /// Reads `count` pages from `first` on into `dst`; returns the bytes read,
  /// fewer only where the file ends. Safe to call from several threads.
  std::size_t read_pages(std::uint64_t first, std::size_t count,
                         char* dst) const {
    const std::size_t page_size = manifest.options.page_size;
    const std::size_t want = count * page_size;
    std::size_t done = 0;
    while (done < want) {
      const ssize_t n =
          ::pread(fd, dst + done, want - done,
                  static_cast<off_t>(first * page_size + done));
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) {
        throw IoError(context + ": cannot read page " +
                      std::to_string(first + done / page_size) + ": " +
                      std::generic_category().message(errno));
      }
      if (n == 0) break;
      done += static_cast<std::size_t>(n);
    }
    return done;
  }

  /// Validates one page image of which `got` bytes were read through
  /// check_page, and its type: `expect` guards against index corruption
  /// pointing a descent at the wrong page kind.
  Page check_read(std::string_view image, std::size_t got,
                  std::uint64_t page_id, PageType expect) const {
    if (got < image.size()) {
      throw ParseError(context + ": truncated page " +
                       std::to_string(page_id) + " at byte " +
                       std::to_string(page_id * image.size() + got));
    }
    Page page;
    page.header = check_page(image, page_id, context, &page.payload);
    if (page.header.type != expect) {
      throw ParseError(context + ": page " + std::to_string(page_id) +
                       " is a " + std::string(to_string(page.header.type)) +
                       " page where a " + std::string(to_string(expect)) +
                       " page was indexed, at byte " +
                       std::to_string(page_id * image.size()));
    }
    return page;
  }

  /// One leaf into `dst` (page_size bytes), fully validated; touches no
  /// telemetry, so a compaction helper may call it.
  Page load_leaf(std::uint64_t page_id, char* dst) const {
    const std::size_t page_size = manifest.options.page_size;
    check_committed(page_id);
    const std::size_t got = read_pages(page_id, 1, dst);
    return check_read(std::string_view(dst, page_size), got, page_id,
                      PageType::kLeaf);
  }

  void count_read(PageType type) noexcept {
    ++telemetry.pages_read;
    switch (type) {
      case PageType::kLeaf: ++telemetry.leaf_pages_read; break;
      case PageType::kInternal: ++telemetry.internal_pages_read; break;
      case PageType::kSuper: break;
    }
  }

  /// Reads up to four committed pages into `buf` (one read per run of
  /// consecutive ids) and fully validates each, in order, counting them in
  /// the telemetry.
  void load_pages(std::span<const std::uint64_t> ids, PageType expect,
                  std::string& buf, std::span<Page> out) {
    const std::size_t page_size = manifest.options.page_size;
    buf.resize(ids.size() * page_size);
    std::size_t run_begin = 0;
    std::size_t run_end = 0;
    std::size_t got = 0;  // bytes read from the run's first page on
    for (std::size_t i = 0; i < ids.size(); ++i) {
      check_committed(ids[i]);
      if (i == run_end) {
        run_begin = i;
        run_end = i + 1;
        while (run_end < ids.size() && ids[run_end] == ids[run_end - 1] + 1 &&
               ids[run_end] < manifest.committed_pages) {
          ++run_end;
        }
        got = read_pages(ids[i], run_end - i, buf.data() + i * page_size);
      }
      const std::size_t at = (i - run_begin) * page_size;
      out[i] = check_read(std::string_view(buf).substr(i * page_size,
                                                       page_size),
                          got > at ? got - at : 0, ids[i], expect);
      count_read(expect);
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
  /// leaf candidates. With `max_keys` set, each collected leaf's fence max
  /// key is appended to it as well.
  void collect_leaves(const SegmentInfo& seg, const EventKey& lo,
                      const EventKey& hi, std::vector<LeafRun>& out,
                      std::vector<EventKey>* max_keys = nullptr) {
    out.clear();
    if (seg.num_leaves == 0 || seg.min_key > hi || seg.max_key < lo) return;
    if (seg.depth == 0) {
      append_leaf(out, seg.root);
      if (max_keys != nullptr) max_keys->push_back(seg.max_key);
      return;
    }
    descend(seg.root, seg.depth, lo, hi, out, max_keys);
  }

  void descend(std::uint64_t page_id, std::uint32_t level, const EventKey& lo,
               const EventKey& hi, std::vector<LeafRun>& out,
               std::vector<EventKey>* max_keys) {
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
        if (max_keys != nullptr) max_keys->push_back(fence.max_key);
      } else {
        descend(fence.child, level - 1, lo, hi, out, max_keys);
      }
    }
  }

  /// A merge's scope: keys in [lo, hi].
  struct Query {
    EventKey lo;
    EventKey hi;
  };
  static Query everything() { return {EventKey{}, max_key()}; }

  /// One segment's side of a merge: its candidate leaves, and the loaded
  /// leaves' records that match the query — indexed in place, decoded only
  /// when delivered.
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
    [[nodiscard]] bool needs_leaf() const noexcept {
      return pos >= records.size() && run_index < leaves.size();
    }
    /// The next candidate leaf, taken off the runs.
    std::uint64_t next_leaf() noexcept {
      LeafRun& run = leaves[run_index];
      const std::uint64_t leaf = run.first++;
      if (run.first == run.end) ++run_index;
      return leaf;
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

  /// Most records a leaf can hold: each takes at least its length prefix,
  /// a kind byte and a key.
  [[nodiscard]] std::size_t max_leaf_records() const noexcept {
    return (manifest.options.page_size - kPageHeaderBytes) /
           (4 + 1 + kKeyBytes);
  }

  /// Appends to `out` the records of one loaded leaf (its payload starts
  /// at byte `at` of the cursor's page buffer) whose keys fall in the
  /// query's range. Every record is validated, in range or not: its length
  /// prefix against the page, then the record rule (check_event_record),
  /// which makes decoding a delivered record infallible.
  void index_leaf(const Page& page, std::size_t at, const Query& query,
                  std::vector<SegmentCursor::Record>& out) const {
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
    while (cursor.needs_leaf()) {
      std::array<std::uint64_t, 4> batch{};
      std::size_t count = 0;
      while (count < batch.size() && cursor.run_index < cursor.leaves.size()) {
        batch[count++] = cursor.next_leaf();
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

  using RecordFn = std::function<void(const EventKey&, std::string_view)>;

  /// K-way merge of `cursors` (in segment order, first leaves loaded) in
  /// canonical key order, handing each record's key and stored bytes to
  /// `fn`; `refill(cursor)` loads a cursor's next leaves once its records
  /// run out. The cursors sit in a binary heap keyed by (head key, segment
  /// index): O(log k) per record over k segments, and equal keys leave in
  /// segment order — the pick a first-minimum scan makes.
  template <typename Refill>
  static std::uint64_t merge_cursors(std::vector<SegmentCursor>& cursors,
                                     const RecordFn& fn, Refill&& refill) {
    std::erase_if(cursors,
                  [](const SegmentCursor& c) { return c.exhausted(); });
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
      if (cursor.needs_leaf()) refill(cursor);
      if (cursor.exhausted()) {
        heap.front() = heap.back();
        heap.pop_back();
      }
      if (!heap.empty()) sift_down(0);
    }
    return delivered;
  }

  /// Every segment merged over `query`, each cursor reading its own leaves
  /// as it needs them: the scan and replay path.
  std::uint64_t merge(const Query& query, const RecordFn& fn) {
    std::vector<SegmentCursor> cursors(manifest.segments.size());
    for (std::size_t s = 0; s < cursors.size(); ++s) {
      collect_leaves(manifest.segments[s], query.lo, query.hi,
                     cursors[s].leaves);
      refill(cursors[s], query);
    }
    return merge_cursors(cursors, fn, [this, &query](SegmentCursor& cursor) {
      refill(cursor, query);
    });
  }

  class LeafPrefetch;
  std::uint64_t merge_prefetched(const RecordFn& fn);

  /// The merge decoding each record into an event for `fn`.
  std::uint64_t merge_events(
      const Query& query, const std::function<void(const StreamEvent&)>& fn) {
    return merge(query, [this, &fn](const EventKey&, std::string_view record) {
      fn(decode_event_payload(ByteCursor(record.substr(4), 0, context)));
    });
  }
};

/// One leaf of a whole-store merge, and the key after whose delivery the
/// merge asks for it: the fence max key of the leaf before it in its
/// segment. A segment's first leaf is asked for before any delivery.
struct LeafJob {
  EventKey need;
  std::uint64_t page = 0;
  std::uint32_t segment = 0;
  bool first = false;
};

/// Loads, checks and indexes the leaves of a whole-store merge ahead of it
/// on helper threads that live as long as this object. The jobs are in the
/// exact order the merge asks for leaves — it asks for a segment's next
/// leaf right after delivering the current leaf's last record, whose key
/// is that leaf's fence max key, and deliveries run in (key, segment)
/// order — so the window is a ring: helpers fill slots at most
/// kPrefetchLeaves jobs ahead of the merge, and the merge swaps each slot's
/// buffers with those of the cursor it feeds and frees it in job order.
/// Every buffer is allocated here, on the merge's thread, and only swapped
/// afterwards. A helper's error stays in its slot until the merge takes
/// that leaf, so errors surface in merge order.
class TraceStore::Impl::LeafPrefetch {
 public:
  LeafPrefetch(const Impl& store, std::vector<LeafJob> jobs)
      : store_(store),
        jobs_(std::move(jobs)),
        slots_(std::min(kPrefetchLeaves, jobs_.size())),
        filled_(slots_.size(), 0) {
    for (Slot& slot : slots_) {
      slot.page.resize(store.manifest.options.page_size);
      slot.records.reserve(store.max_leaf_records());
    }
    // The merge keeps one core busy; the others load ahead of it (one
    // helper when the host does not say how many cores it has).
    const std::size_t helpers = std::min(
        slots_.size(),
        std::max<std::size_t>(std::thread::hardware_concurrency(), 2) - 1);
    helpers_.reserve(helpers);
    try {
      for (std::size_t i = 0; i < helpers; ++i) {
        helpers_.emplace_back([this] { help(); });
      }
    } catch (...) {
      stop();
      throw;
    }
  }
  ~LeafPrefetch() { stop(); }
  LeafPrefetch(const LeafPrefetch&) = delete;
  LeafPrefetch& operator=(const LeafPrefetch&) = delete;

  /// Swaps leaf `page`, which must be the next job, into `cursor` once a
  /// helper has loaded it, and rethrows the helper's error if it failed.
  void take(std::uint64_t page, SegmentCursor& cursor) MTD_EXCLUDES(mutex_) {
    std::size_t job = 0;
    {
      MutexLock lock(mutex_);
      job = taken_;
      if (job < jobs_.size() && jobs_[job].page == page &&
          filled_[job % slots_.size()] != job + 1) {
        // Never sleep while a helper sleeps on a slot it could fill.
        if (helpers_waiting_ > 0) space_.notify_all();
        merge_waiting_ = true;
        ready_.wait(mutex_, [&]() MTD_NO_THREAD_SAFETY_ANALYSIS {
          return filled_[job % slots_.size()] == job + 1;
        });
        merge_waiting_ = false;
      }
    }
    if (job >= jobs_.size() || jobs_[job].page != page) {
      throw ParseError(
          store_.context + ": leaf page " + std::to_string(page) +
          " is needed out of fence order (the fences order leaf page " +
          (job < jobs_.size() ? std::to_string(jobs_[job].page)
                              : std::string("none")) +
          " next): its segment's leaves disagree with their fences");
    }
    Slot& slot = slots_[job % slots_.size()];
    std::swap(slot.page, cursor.pages);
    std::swap(slot.records, cursor.records);
    const std::exception_ptr error = std::exchange(slot.error, nullptr);
    bool wake = false;
    {
      MutexLock lock(mutex_);
      ++taken_;
      // Helpers resume once half the window is free: one wakeup per
      // half window instead of one per leaf.
      wake = helpers_waiting_ > 0 &&
             2 * (taken_ + slots_.size() - claimed_) >= slots_.size();
    }
    if (wake) space_.notify_all();
    if (error) std::rethrow_exception(error);
    cursor.pos = 0;
  }

 private:
  struct Slot {
    std::string page;
    std::vector<SegmentCursor::Record> records;
    std::exception_ptr error;
  };

  void help() MTD_EXCLUDES(mutex_) {
    for (;;) {
      std::size_t job = 0;
      {
        MutexLock lock(mutex_);
        const auto may_claim = [this]() MTD_NO_THREAD_SAFETY_ANALYSIS {
          return stopping_ || claimed_ >= jobs_.size() ||
                 claimed_ < taken_ + slots_.size();
        };
        if (!may_claim()) {
          ++helpers_waiting_;
          space_.wait(mutex_, may_claim);
          --helpers_waiting_;
        }
        if (stopping_ || claimed_ >= jobs_.size()) return;
        job = claimed_++;
      }
      // The slot is this helper's until it is marked filled: the merge
      // freed its previous job, and no other claim maps to it.
      Slot& slot = slots_[job % slots_.size()];
      try {
        const Page leaf = store_.load_leaf(jobs_[job].page, slot.page.data());
        slot.records.clear();
        store_.index_leaf(leaf, kPageHeaderBytes, everything(), slot.records);
      } catch (...) {
        slot.error = std::current_exception();
      }
      bool wake = false;
      {
        MutexLock lock(mutex_);
        filled_[job % slots_.size()] = job + 1;
        wake = merge_waiting_ && job == taken_;
      }
      if (wake) ready_.notify_one();
    }
  }

  void stop() noexcept MTD_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      stopping_ = true;
    }
    space_.notify_all();
    for (std::thread& helper : helpers_) helper.join();
  }

  const Impl& store_;
  const std::vector<LeafJob> jobs_;
  std::vector<Slot> slots_;
  Mutex mutex_;
  ConditionVariable space_;  ///< helpers wait here for a free slot
  ConditionVariable ready_;  ///< the merge waits here for its leaf
  /// Per slot: 1 + the job it holds once loaded (0 = none yet).
  std::vector<std::size_t> filled_ MTD_GUARDED_BY(mutex_);
  std::size_t claimed_ MTD_GUARDED_BY(mutex_) = 0;
  std::size_t taken_ MTD_GUARDED_BY(mutex_) = 0;
  std::size_t helpers_waiting_ MTD_GUARDED_BY(mutex_) = 0;
  bool merge_waiting_ MTD_GUARDED_BY(mutex_) = false;
  bool stopping_ MTD_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> helpers_;
};

std::uint64_t TraceStore::Impl::merge_prefetched(const RecordFn& fn) {
  const Query all = everything();
  std::vector<SegmentCursor> cursors(manifest.segments.size());
  std::vector<LeafJob> jobs;
  std::vector<EventKey> max_keys;
  for (std::size_t s = 0; s < cursors.size(); ++s) {
    SegmentCursor& cursor = cursors[s];
    max_keys.clear();
    collect_leaves(manifest.segments[s], all.lo, all.hi, cursor.leaves,
                   &max_keys);
    std::size_t i = 0;
    for (const LeafRun& run : cursor.leaves) {
      for (std::uint64_t leaf = run.first; leaf < run.end; ++leaf, ++i) {
        jobs.push_back({i == 0 ? EventKey{} : max_keys[i - 1], leaf,
                        static_cast<std::uint32_t>(s), i == 0});
      }
    }
    cursor.pages.resize(manifest.options.page_size);
    cursor.records.reserve(max_leaf_records());
  }
  // Every first leaf is asked for up front, in segment order; each later
  // leaf once the key before it is delivered. A stable sort keeps a
  // segment's leaves in order where their need keys tie.
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const LeafJob& a, const LeafJob& b) {
                     if (a.first != b.first) return a.first;
                     if (!a.first && !(a.need == b.need)) {
                       return a.need < b.need;
                     }
                     return a.segment < b.segment;
                   });
  LeafPrefetch prefetch(*this, std::move(jobs));
  const auto refill = [this, &prefetch](SegmentCursor& cursor) {
    while (cursor.needs_leaf()) {
      prefetch.take(cursor.next_leaf(), cursor);
      count_read(PageType::kLeaf);
    }
  };
  for (SegmentCursor& cursor : cursors) refill(cursor);
  return merge_cursors(cursors, fn, refill);
}

TraceStore::TraceStore(const std::string& path) : impl_(new Impl) {
  impl_->path = path;
  impl_->pages_path = path + ".pages";
  impl_->context = "trace store '" + impl_->pages_path + "'";
  impl_->manifest = StoreManifest::load(path);
  impl_->fd = ::open(impl_->pages_path.c_str(), O_RDONLY | O_CLOEXEC);
  struct stat st {};
  if (impl_->fd < 0 || ::fstat(impl_->fd, &st) != 0) {
    throw IoError("TraceStore: cannot open '" + impl_->pages_path + "'");
  }
  const auto file_size = static_cast<std::uint64_t>(st.st_size);
  const std::uint64_t committed = impl_->manifest.committed_bytes();
  if (file_size < committed) {
    throw ParseError(impl_->context + ": page file is " +
                     std::to_string(file_size) +
                     " bytes but the manifest commits " +
                     std::to_string(committed) + " — truncated at byte " +
                     std::to_string(file_size));
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
  return impl_->merge_prefetched(fn);
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
