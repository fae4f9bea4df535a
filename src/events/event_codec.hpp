// Shared binary codec of the typed event plane.
//
// One StreamEvent payload encoding — u8 kind, the 16-byte ordering key,
// then the kind-specific fields in declaration order, all integers
// little-endian and doubles as little-endian IEEE-754 bit patterns — is
// shared by every binary surface of the system: the length-prefixed event
// log (events/event_sink.hpp), and the leaf pages of the on-disk trace
// store (src/store). Factoring it here keeps the formats bit-identical by
// construction (tests/test_serialization_golden.cpp pins the log bytes).
//
// ByteCursor is the matching read side: bounds-checked little-endian reads
// over an in-memory byte range, reporting truncation as ParseError with a
// caller-supplied context ("binary event log 'path'", "trace store
// 'path'") and the absolute byte offset, so every binary reader in the
// tree produces the same provenance-carrying diagnostics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "events/stream_event.hpp"

namespace mtd {

/// Upper bound on encode_event_payload output for any current event kind
/// (the largest record, a segment, is 51 bytes; 64 leaves headroom).
inline constexpr std::size_t kMaxEventPayloadBytes = 64;

/// Bounds-checked little-endian reads over a byte range. `base_offset` is
/// the absolute position of the range's first byte in its containing file;
/// truncation throws ParseError as
/// "<context>: truncated <what> at byte <base_offset + pos>".
class ByteCursor {
 public:
  ByteCursor(std::string_view bytes, std::size_t base_offset,
             const std::string& context)
      : data_(bytes), base_(base_offset), context_(&context) {}

  /// Position within the range (not the file).
  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }
  /// The error-message prefix this cursor reports with.
  [[nodiscard]] const std::string& context() const noexcept {
    return *context_;
  }
  /// Absolute file position (base_offset + pos).
  [[nodiscard]] std::size_t file_pos() const noexcept { return base_ + pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }

  std::uint8_t u8(const char* what) {
    require(1, what);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint16_t u16(const char* what) {
    require(2, what);
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i) {
      v = static_cast<std::uint16_t>(
          v | (static_cast<std::uint16_t>(
                   static_cast<std::uint8_t>(data_[pos_ + i]))
               << (8 * i)));
    }
    pos_ += 2;
    return v;
  }
  std::uint32_t u32(const char* what) {
    require(4, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  std::uint64_t u64(const char* what) {
    require(8, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  double f64(const char* what);

  /// Skips `n` bytes (throws like a read when fewer remain).
  void skip(std::size_t n, const char* what) {
    require(n, what);
    pos_ += n;
  }

 private:
  void require(std::size_t n, const char* what) const;

  std::string_view data_;
  std::size_t pos_ = 0;
  std::size_t base_;
  const std::string* context_;
};

/// Exact length of encode_event_payload's output for an event of `kind`:
/// the kind byte, the 16-byte key and the kind's fixed fields.
[[nodiscard]] constexpr std::size_t event_payload_bytes(
    EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kMinute: return 1 + 16 + 4;
    case EventKind::kSession: return 1 + 16 + 2 + 1 + 8 + 8;
    case EventKind::kSegment: return 1 + 16 + 2 + 1 + 8 + 4 + 1 + 1 + 8 + 8;
    case EventKind::kPacket: return 1 + 16 + 2 + 8 + 8 + 4;
  }
  return 0;
}

/// Serializes `event` (kind byte, key, kind fields) into `buf`, which must
/// hold at least kMaxEventPayloadBytes. Returns the number of bytes
/// written.
[[nodiscard]] std::size_t encode_event_payload(const StreamEvent& event,
                                               char* buf);

/// Parses one payload produced by encode_event_payload from `rec`
/// (positioned at the kind byte). Returns false — leaving `out` untouched
/// and `rec` advanced past the kind byte only — when the kind is unknown,
/// so callers with a length prefix can skip the record for forward
/// compatibility. Throws ParseError (via the cursor) on truncation.
[[nodiscard]] bool decode_event_payload(ByteCursor& rec, StreamEvent& out);

}  // namespace mtd
