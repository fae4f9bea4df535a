#include "store/format.hpp"

#include <algorithm>
#include <istream>

#include "common/error.hpp"
#include "common/fmt.hpp"

namespace mtd::store {

const char* to_string(PageType type) noexcept {
  switch (type) {
    case PageType::kSuper: return "super";
    case PageType::kLeaf: return "leaf";
    case PageType::kInternal: return "internal";
  }
  return "?";
}

std::array<std::uint64_t, 4> fnv1a64_x4(
    const std::array<std::string_view, 4>& lanes) noexcept {
  // Each lane is the scalar byte-serial recurrence; only the schedule is
  // interleaved, over the prefix all four share, then each lane finishes
  // its own tail.
  std::size_t common = lanes[0].size();
  for (const std::string_view lane : lanes) {
    common = std::min(common, lane.size());
  }
  const auto byte = [&lanes](std::size_t lane, std::size_t i) {
    return static_cast<std::uint8_t>(lanes[lane][i]);
  };
  std::uint64_t h0 = kFnvOffsetBasis;
  std::uint64_t h1 = kFnvOffsetBasis;
  std::uint64_t h2 = kFnvOffsetBasis;
  std::uint64_t h3 = kFnvOffsetBasis;
  for (std::size_t i = 0; i < common; ++i) {
    h0 = (h0 ^ byte(0, i)) * kFnvPrime;
    h1 = (h1 ^ byte(1, i)) * kFnvPrime;
    h2 = (h2 ^ byte(2, i)) * kFnvPrime;
    h3 = (h3 ^ byte(3, i)) * kFnvPrime;
  }
  return {fnv1a64(lanes[0].substr(common), h0),
          fnv1a64(lanes[1].substr(common), h1),
          fnv1a64(lanes[2].substr(common), h2),
          fnv1a64(lanes[3].substr(common), h3)};
}

void encode_page_header(const PageHeader& header, char* out) {
  char* p = out;
  p = store_le(p, kPageMagic);
  p = store_le(p, header.page_id);
  *p++ = static_cast<char>(header.type);
  *p++ = static_cast<char>(kFormatVersion);
  p = store_le(p, header.entry_count);
  p = store_le(p, header.payload_bytes);
  p = store_le(p, header.checksum);
  p = store_le(p, std::uint32_t{0});  // reserved
}

PageHeader decode_page_header(ByteCursor& cursor) {
  const std::size_t at = cursor.file_pos();
  const std::uint64_t magic = cursor.u64("page magic");
  if (magic != kPageMagic) {
    throw ParseError(cursor.context() + ": bad page magic at byte " +
                     std::to_string(at) +
                     " (not a store page, or a torn write)");
  }
  PageHeader header;
  header.page_id = cursor.u64("page id");
  const std::uint8_t type = cursor.u8("page type");
  if (type != static_cast<std::uint8_t>(PageType::kSuper) &&
      type != static_cast<std::uint8_t>(PageType::kLeaf) &&
      type != static_cast<std::uint8_t>(PageType::kInternal)) {
    throw ParseError(cursor.context() + ": unknown page type " +
                     std::to_string(type) + " at byte " + std::to_string(at));
  }
  header.type = static_cast<PageType>(type);
  const std::uint8_t version = cursor.u8("page version");
  if (version != kFormatVersion) {
    throw ParseError(cursor.context() + ": unsupported page version " +
                     std::to_string(version) + " at byte " +
                     std::to_string(at));
  }
  header.entry_count = cursor.u16("page entry count");
  header.payload_bytes = cursor.u32("page payload length");
  header.checksum = cursor.u64("page checksum");
  cursor.skip(4, "page header padding");
  return header;
}

void encode_key(const EventKey& key, char* out) {
  char* p = out;
  p = store_le(p, key.bs);
  p = store_le(p, key.day);
  p = store_le(p, key.minute_of_day);
  (void)store_le(p, key.seq);
}

EventKey decode_key(ByteCursor& cursor, const char* what) {
  EventKey key;
  key.bs = cursor.u32(what);
  key.day = cursor.u16(what);
  key.minute_of_day = cursor.u16(what);
  key.seq = cursor.u64(what);
  return key;
}

void append_page(std::string& out, std::uint64_t page_id, PageType type,
                 std::uint16_t entry_count, std::string_view payload,
                 std::size_t page_size) {
  PageHeader header;
  header.page_id = page_id;
  header.type = type;
  header.entry_count = entry_count;
  header.payload_bytes = static_cast<std::uint32_t>(payload.size());
  header.checksum = fnv1a64(payload);
  const std::size_t at = out.size();
  out.resize(at + page_size, '\0');
  encode_page_header(header, out.data() + at);
  payload.copy(out.data() + at + kPageHeaderBytes, payload.size());
}

std::string build_superblock(std::size_t page_size) {
  char payload[8 + 4 + 8];
  char* p = payload;
  for (const char c : kStoreMagic) *p++ = c;
  p = store_le(p, kFormatVersion);
  (void)store_le(p, static_cast<std::uint64_t>(page_size));
  std::string page;
  append_page(page, 0, PageType::kSuper, 0,
              std::string_view(payload, sizeof payload), page_size);
  return page;
}

void check_superblock(std::string_view page, std::size_t page_size,
                      const std::string& context) {
  std::string_view payload;
  const PageHeader header = check_page(page, 0, context, &payload);
  if (header.type != PageType::kSuper) {
    throw ParseError(context + ": page 0 is a " +
                     std::string(to_string(header.type)) +
                     " page, not the superblock");
  }
  ByteCursor cursor(payload, kPageHeaderBytes, context);
  for (const char c : kStoreMagic) {
    if (static_cast<char>(cursor.u8("superblock magic")) != c) {
      throw ParseError(context +
                       ": not a trace store page file (bad superblock "
                       "magic at byte " +
                       std::to_string(kPageHeaderBytes) + ")");
    }
  }
  const std::uint32_t version = cursor.u32("superblock version");
  if (version != kFormatVersion) {
    throw ParseError(context + ": unsupported store format version " +
                     std::to_string(version));
  }
  const std::uint64_t recorded = cursor.u64("superblock page size");
  if (recorded != page_size) {
    throw ParseError(context + ": superblock records page size " +
                     std::to_string(recorded) + " but the manifest says " +
                     std::to_string(page_size));
  }
}

namespace {

/// Everything check_page validates but the checksum; points `body` at the
/// payload.
PageHeader check_frame(std::string_view page, std::uint64_t page_id,
                       const std::string& context, std::string_view* body) {
  const std::size_t base = page_id * page.size();
  ByteCursor cursor(page, base, context);
  const PageHeader header = decode_page_header(cursor);
  if (header.page_id != page_id) {
    throw ParseError(context + ": page " + std::to_string(page_id) +
                     " carries id " + std::to_string(header.page_id) +
                     " at byte " + std::to_string(base) +
                     " (misdirected write)");
  }
  if (header.payload_bytes > page.size() - kPageHeaderBytes) {
    throw ParseError(context + ": page " + std::to_string(page_id) +
                     " claims " + std::to_string(header.payload_bytes) +
                     " payload bytes, over the page capacity of " +
                     std::to_string(page.size() - kPageHeaderBytes) +
                     ", at byte " + std::to_string(base));
  }
  *body = page.substr(kPageHeaderBytes, header.payload_bytes);
  return header;
}

}  // namespace

PageHeader check_page(std::string_view page, std::uint64_t page_id,
                      const std::string& context, std::string_view* payload) {
  PageHeader header;
  std::string_view body;
  check_pages({&page, 1}, {&page_id, 1}, context, {&header, 1}, {&body, 1});
  if (payload != nullptr) *payload = body;
  return header;
}

void check_pages(std::span<const std::string_view> pages,
                 std::span<const std::uint64_t> page_ids,
                 const std::string& context, std::span<PageHeader> headers,
                 std::span<std::string_view> payloads) {
  std::array<std::string_view, 4> lanes{};
  for (std::size_t i = 0; i < pages.size(); ++i) {
    headers[i] = check_frame(pages[i], page_ids[i], context, &lanes[i]);
  }
  // A single page takes the scalar oracle.
  const std::array<std::uint64_t, 4> sums =
      pages.size() == 1 ? std::array<std::uint64_t, 4>{fnv1a64(lanes[0])}
                        : fnv1a64_x4(lanes);
  for (std::size_t i = 0; i < pages.size(); ++i) {
    if (sums[i] != headers[i].checksum) {
      throw ParseError(context + ": page " + std::to_string(page_ids[i]) +
                       " checksum mismatch at byte " +
                       std::to_string(page_ids[i] * pages[i].size()) +
                       " (torn or corrupt page)");
    }
    payloads[i] = lanes[i];
  }
}

std::string encode_manifest_record(std::string_view payload) {
  std::string record(kManifestRecordHeaderBytes + payload.size(), '\0');
  char* p = store_le(record.data(), std::uint64_t{payload.size()});
  (void)store_le(p, fnv1a64(payload));
  payload.copy(record.data() + kManifestRecordHeaderBytes, payload.size());
  return record;
}

ManifestLogTail read_manifest_log(std::istream& in,
                                  const std::string& path) {
  in.seekg(0, std::ios::end);
  const auto end = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  const std::string context =
      "store manifest '" + path + "' (" + std::to_string(end) + " bytes)";
  const auto read = [&](std::string& out, std::uint64_t n) {
    out.resize(n);
    if (!in.read(out.data(), static_cast<std::streamsize>(n))) {
      throw IoError(context + ": read failed");
    }
  };
  const std::string torn = context +
                           ": no complete manifest record (torn at byte " +
                           std::to_string(end) + ")";
  std::string header;
  read(header, std::min<std::uint64_t>(end, kManifestLogHeader.size()));
  if (header != kManifestLogHeader) {
    if (kManifestLogHeader.starts_with(header)) throw ParseError(torn);
    throw ParseError(context +
                     ": not a manifest log (bad format line at byte 0)");
  }
  ManifestLogTail tail;
  tail.valid_bytes = header.size();
  // A record whose header or payload runs past the end is the torn tail of
  // an interrupted append; everything before it must check out.
  std::uint64_t pos = tail.valid_bytes;
  std::uint64_t records = 0;
  std::string payload;
  while (end - pos >= kManifestRecordHeaderBytes) {
    read(header, kManifestRecordHeaderBytes);
    ByteCursor cursor(header, pos, context);
    const std::uint64_t length = cursor.u64("manifest record length");
    const std::uint64_t checksum = cursor.u64("manifest record checksum");
    const std::uint64_t body = pos + kManifestRecordHeaderBytes;
    if (length > end - body) break;
    read(payload, length);
    if (fnv1a64(payload) != checksum) {
      throw ParseError(context + ": manifest record " +
                       std::to_string(records + 1) +
                       " checksum mismatch at byte " + std::to_string(pos) +
                       " (corrupt record)");
    }
    tail.last.swap(payload);
    ++records;
    pos = body + length;
    tail.valid_bytes = pos;
  }
  if (records == 0) throw ParseError(torn);
  return tail;
}

}  // namespace mtd::store
