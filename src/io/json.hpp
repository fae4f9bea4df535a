// Minimal JSON document model, parser and serializer.
//
// Used to persist fitted model parameters (the public release artifact of
// the paper is exactly such a parameter file) and to emit figure series in a
// machine-readable form. Supports the full JSON grammar except for \u
// surrogate pairs outside the BMP.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/error.hpp"

namespace mtd {

class Json;

using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json, std::less<>>;

/// A JSON value: null, bool, number, string, array or object.
class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::size_t i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  [[nodiscard]] bool is_null() const noexcept {
    return std::holds_alternative<std::nullptr_t>(value_);
  }
  [[nodiscard]] bool is_bool() const noexcept {
    return std::holds_alternative<bool>(value_);
  }
  [[nodiscard]] bool is_number() const noexcept {
    return std::holds_alternative<double>(value_);
  }
  [[nodiscard]] bool is_string() const noexcept {
    return std::holds_alternative<std::string>(value_);
  }
  [[nodiscard]] bool is_array() const noexcept {
    return std::holds_alternative<JsonArray>(value_);
  }
  [[nodiscard]] bool is_object() const noexcept {
    return std::holds_alternative<JsonObject>(value_);
  }

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const JsonArray& as_array() const;
  [[nodiscard]] JsonArray& as_array();
  [[nodiscard]] const JsonObject& as_object() const;
  [[nodiscard]] JsonObject& as_object();

  /// Object member access; throws ParseError when absent or not an object.
  [[nodiscard]] const Json& at(std::string_view key) const;
  /// True when this is an object containing `key`.
  [[nodiscard]] bool contains(std::string_view key) const noexcept;

  /// Serializes; `indent` > 0 pretty-prints with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Parses a complete JSON document. Throws ParseError on malformed input.
  static Json parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value_;
};

/// `value` as an integer in [0, max]. Throws ParseError naming `field` when
/// it is not a number, or is negative, non-integral or above `max`. Every
/// count, index or size read from a file goes through this: casting an
/// out-of-range double straight to an integer is undefined behaviour.
[[nodiscard]] std::uint64_t json_uint(const Json& value, std::string_view field,
                                      std::uint64_t max);

/// json_uint bounded by the range of T.
template <std::integral T>
[[nodiscard]] T json_uint(const Json& value, std::string_view field) {
  return static_cast<T>(json_uint(
      value, field,
      static_cast<std::uint64_t>(std::numeric_limits<T>::max())));
}

/// 64-bit values (seeds, fingerprints, page ids, counters) are stored as
/// 0x-prefixed hex strings: JSON numbers are doubles and would silently
/// lose bits above 2^53.
[[nodiscard]] std::string to_hex(std::uint64_t v);

/// Inverse of to_hex. Throws ParseError naming `field` when `s` is not
/// 0x-prefixed hex that fits in 64 bits.
[[nodiscard]] std::uint64_t from_hex(std::string_view s,
                                     std::string_view field);

/// Reads an entire file into a string. Throws IoError when unreadable.
[[nodiscard]] std::string read_file(const std::string& path);

/// Writes `content` to `path`, replacing any existing file. Throws IoError
/// on open or short-write failure; the target may be left torn.
void write_file(const std::string& path, std::string_view content);

/// Durable, crash-safe replacement of `path`: writes `content` to
/// `<path>.tmp`, fdatasyncs it, renames it over `path`, then fsyncs the
/// parent directory. A killed process or a power cut at any point leaves
/// either the old complete file or the new complete file — never a torn
/// one — and once this returns the new file survives a power cut. Throws
/// IoError (and removes the temporary) when any step fails.
void write_file_atomic(const std::string& path, std::string_view content);

}  // namespace mtd
