// On-disk format of the trace store, v3 (DESIGN.md section 12).
//
// A store is two files. `<path>` is the manifest log: a format line, then
// records, each a 24-byte header (payload length, XXH64 of the payload,
// XXH64 of those two words) and a complete StoreManifest JSON document. A
// commit appends one record and fdatasyncs it — the record is the single
// commit point, and the last complete record is the store's committed
// state, so the page file never needs to be consistent beyond the byte
// length that record vouches for. `<path>.pages` is a flat array of
// fixed-size pages: page 0 is the superblock (file magic, format version,
// page size), every later page carries a 40-byte header with its own id,
// type, entry count, payload length and an XXH64 checksum of the payload,
// so torn or misdirected reads are detected at the page that suffered
// them, with a byte offset.
//
// Committed events live in immutable sorted segments (one per commit):
// leaf pages holding length-prefixed event records in (bs, day, minute,
// seq) order, then internal B-tree pages of (min key, max key, child)
// fences, built bottom-up to a single root. Keys lead with the BS and the
// leaves are sorted, so a query's fences admit only the leaves that hold
// its keys, plus at most one per segment that brackets a range the
// segment lacks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "common/xxh64.hpp"
#include "events/event_codec.hpp"
#include "events/stream_event.hpp"

namespace mtd::store {

/// Magic of the page file's superblock ("MTDSTOR1").
inline constexpr char kStoreMagic[8] = {'M', 'T', 'D', 'S', 'T', 'O', 'R',
                                        '1'};
/// Magic leading every page header ("MTDPAGE1", little-endian u64).
inline constexpr std::uint64_t kPageMagic = 0x314547415044544dULL;
/// Page format version, in every page header and the superblock (1 was
/// the FNV-1a-checksummed pages of format v2 and earlier).
inline constexpr std::uint32_t kFormatVersion = 2;
/// Manifest format tag (the "format" field of every manifest record).
inline constexpr const char* kManifestFormat = "mtd-trace-store-v3";
/// First line of the manifest log; the records follow it.
inline constexpr std::string_view kManifestLogHeader =
    "mtd-trace-store-log-v2\n";
/// A manifest record's header, little-endian: u64 payload length, u64
/// xxh64 of the payload, then u64 xxh64 of those first 16 header bytes,
/// which tells a corrupt header from the torn tail of an append.
inline constexpr std::size_t kManifestRecordHeaderBytes = 24;
/// A writer rewrites the manifest log as one record instead of appending
/// when the log would grow past this many bytes (or eight records of the
/// appended size, whichever is larger).
inline constexpr std::uint64_t kManifestLogRewriteBytes = std::uint64_t{4}
                                                          << 20;

enum class PageType : std::uint8_t {
  kSuper = 0,     ///< page 0 only
  kLeaf = 1,      ///< sorted event records
  kInternal = 3,  ///< B-tree fence entries (2 is unused)
};

[[nodiscard]] const char* to_string(PageType type) noexcept;

/// Fixed-size header at the start of every page.
struct PageHeader {
  std::uint64_t page_id = 0;
  PageType type = PageType::kLeaf;
  std::uint16_t entry_count = 0;
  std::uint32_t payload_bytes = 0;
  std::uint64_t checksum = 0;  ///< xxh64 of the payload bytes
};

inline constexpr std::size_t kPageHeaderBytes = 40;
/// Serialized EventKey: u32 bs, u16 day, u16 minute, u64 seq.
inline constexpr std::size_t kKeyBytes = 16;
/// Internal-page entry: min key, max key, u64 child page id.
inline constexpr std::size_t kFenceEntryBytes = 2 * kKeyBytes + 8;
/// Smallest supported page: must fit the header plus one maximal event
/// record and one fence entry with room to spare.
inline constexpr std::size_t kMinPageSize = 512;

/// XXH64 over a byte range (common/xxh64.hpp): the page payload and
/// manifest record checksum.
using mtd::xxh64;

/// Serializes `header` into `out` (kPageHeaderBytes bytes).
void encode_page_header(const PageHeader& header, char* out);

/// Parses and validates a page header from `cursor` (magic and version
/// checked; id/type are the caller's to verify against expectations).
/// Throws ParseError through the cursor's context on truncation or a bad
/// magic/version.
[[nodiscard]] PageHeader decode_page_header(ByteCursor& cursor);

/// Serializes `key` into `out` (kKeyBytes bytes).
void encode_key(const EventKey& key, char* out);
[[nodiscard]] EventKey decode_key(ByteCursor& cursor, const char* what);

/// Appends one complete page image to `out`: header, payload, zero
/// padding to `page_size`. The checksum is computed here.
void append_page(std::string& out, std::uint64_t page_id, PageType type,
                 std::uint16_t entry_count, std::string_view payload,
                 std::size_t page_size);

/// The superblock page (page 0) of a new store: store magic, format
/// version, page size — enough for any reader to validate the manifest it
/// arrived with against the file it found.
[[nodiscard]] std::string build_superblock(std::size_t page_size);

/// Validates a page-0 image against the manifest's page size: store magic,
/// format version, recorded page size, header checksum. Throws ParseError
/// (prefixed with `context`, carrying the byte offset) on any mismatch.
void check_superblock(std::string_view page, std::size_t page_size,
                      const std::string& context);

/// Decodes and fully validates one page image whose first byte sits at
/// file offset `page_id * page.size()`: header magic and version, the
/// recorded page id against `page_id`, payload length against the page
/// bounds, and the payload checksum. Returns the header and points
/// `payload` at the checked payload bytes. Throws ParseError through
/// `context` with the exact byte offset of the defect.
[[nodiscard]] PageHeader check_page(std::string_view page,
                                    std::uint64_t page_id,
                                    const std::string& context,
                                    std::string_view* payload);

/// One manifest log record: header, then `payload` (a StoreManifest
/// document).
[[nodiscard]] std::string encode_manifest_record(std::string_view payload);

/// The last complete record of a manifest log, and where it ends.
struct ManifestLogTail {
  std::string last;               ///< payload of the last complete record
  std::uint64_t valid_bytes = 0;  ///< end of the last complete record
};

/// Reads the manifest log `in` (opened from `path`) record by record,
/// holding at most two records: checks the format line, then the header
/// check and the payload checksum of every complete record, and keeps the
/// last. The end of the file inside a record's header, or inside the
/// payload of a record whose header checks out, is a torn tail (an append
/// a crash cut short): valid_bytes stops before it. Throws ParseError
/// naming `path` and the byte offset on a bad format line (naming both log
/// tags when it is another version's), a header that fails its check or a
/// payload checksum mismatch, naming `path` and its size when no complete
/// record precedes the tail, and IoError when a read fails.
[[nodiscard]] ManifestLogTail read_manifest_log(std::istream& in,
                                                const std::string& path);

/// How many (min key, max key, child) fences fit one internal page (entry
/// counts are u16, hence the cap).
[[nodiscard]] constexpr std::size_t fence_entries_per_page(
    std::size_t page_size) noexcept {
  const std::size_t fit = (page_size - kPageHeaderBytes) / kFenceEntryBytes;
  return fit > 0xffff ? 0xffff : fit;
}

}  // namespace mtd::store
