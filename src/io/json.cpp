#include "io/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "io/durable_file.hpp"

namespace mtd {

bool Json::as_bool() const {
  if (const bool* b = std::get_if<bool>(&value_)) return *b;
  throw ParseError("Json: not a bool");
}

double Json::as_number() const {
  if (const double* d = std::get_if<double>(&value_)) return *d;
  throw ParseError("Json: not a number");
}

std::uint64_t json_uint(const Json& value, std::string_view field,
                        std::uint64_t max) {
  if (!value.is_number()) {
    throw ParseError(std::string(field) + ": not a number");
  }
  const double d = value.as_number();
  // 2^64 is exact as a double, and every integral double below it converts
  // to uint64 exactly; NaN fails the first comparison.
  if (d >= 0.0 && d < 0x1p64 && d == std::floor(d) &&
      static_cast<std::uint64_t>(d) <= max) {
    return static_cast<std::uint64_t>(d);
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  throw ParseError(std::string(field) + ": expected an integer in [0, " +
                   std::to_string(max) + "], got " + buf);
}

std::string to_hex(std::uint64_t v) {
  char buf[19] = "0x";
  const auto [ptr, ec] = std::to_chars(buf + 2, buf + sizeof(buf), v, 16);
  return std::string(buf, ptr);
}

std::uint64_t from_hex(std::string_view s, std::string_view field) {
  if (s.size() < 3 || s[0] != '0' || s[1] != 'x') {
    throw ParseError(std::string(field) +
                     ": expected 0x-prefixed hex, got '" + std::string(s) +
                     "'");
  }
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(s.data() + 2, s.data() + s.size(), v, 16);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw ParseError(std::string(field) + ": bad hex value '" +
                     std::string(s) + "'");
  }
  return v;
}

const std::string& Json::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&value_)) return *s;
  throw ParseError("Json: not a string");
}

const JsonArray& Json::as_array() const {
  if (const JsonArray* a = std::get_if<JsonArray>(&value_)) return *a;
  throw ParseError("Json: not an array");
}

JsonArray& Json::as_array() {
  if (JsonArray* a = std::get_if<JsonArray>(&value_)) return *a;
  throw ParseError("Json: not an array");
}

const JsonObject& Json::as_object() const {
  if (const JsonObject* o = std::get_if<JsonObject>(&value_)) return *o;
  throw ParseError("Json: not an object");
}

JsonObject& Json::as_object() {
  if (JsonObject* o = std::get_if<JsonObject>(&value_)) return *o;
  throw ParseError("Json: not an object");
}

const Json& Json::at(std::string_view key) const {
  const JsonObject& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end()) {
    throw ParseError("Json: missing key '" + std::string(key) + "'");
  }
  return it->second;
}

bool Json::contains(std::string_view key) const noexcept {
  const JsonObject* obj = std::get_if<JsonObject>(&value_);
  return obj != nullptr && obj->find(key) != obj->end();
}

namespace {

void escape_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double d) {
  if (std::isfinite(d) && d == std::floor(d) && std::abs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", d);
    out += buf;
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  out += buf;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    skip_ws();
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("Json parse error at offset " + std::to_string(pos_) +
                     ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) fail(std::string("expected '") + c + "'");
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("bad literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.insert_or_assign(std::move(key), parse_value());
      skip_ws();
      const char c = take();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}'");
    }
    return Json(std::move(obj));
  }

  Json parse_array() {
    expect('[');
    JsonArray arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = take();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']'");
    }
    return Json(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') break;
      if (c == '\\') {
        const char esc = take();
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = take();
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape");
            }
            // UTF-8 encode (BMP only).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("bad escape");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc{} || ptr != text_.data() + pos_) fail("bad number");
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const std::string pad = indent > 0
      ? "\n" + std::string(static_cast<std::size_t>(indent * (depth + 1)), ' ')
      : "";
  const std::string pad_close = indent > 0
      ? "\n" + std::string(static_cast<std::size_t>(indent * depth), ' ')
      : "";

  if (is_null()) {
    out += "null";
  } else if (const bool* b = std::get_if<bool>(&value_)) {
    out += *b ? "true" : "false";
  } else if (const double* d = std::get_if<double>(&value_)) {
    append_number(out, *d);
  } else if (const std::string* s = std::get_if<std::string>(&value_)) {
    escape_string(out, *s);
  } else if (const JsonArray* a = std::get_if<JsonArray>(&value_)) {
    if (a->empty()) {
      out += "[]";
      return;
    }
    out += '[';
    bool first = true;
    for (const Json& item : *a) {
      if (!first) out += ',';
      out += pad;
      item.dump_to(out, indent, depth + 1);
      first = false;
    }
    out += pad_close;
    out += ']';
  } else if (const JsonObject* o = std::get_if<JsonObject>(&value_)) {
    if (o->empty()) {
      out += "{}";
      return;
    }
    out += '{';
    bool first = true;
    for (const auto& [key, val] : *o) {
      if (!first) out += ',';
      out += pad;
      escape_string(out, key);
      out += indent > 0 ? ": " : ":";
      val.dump_to(out, indent, depth + 1);
      first = false;
    }
    out += pad_close;
    out += '}';
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

Json Json::parse(std::string_view text) {
  Parser parser(text);
  return parser.parse_document();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("read_file: cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("write_file: cannot open " + path);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  if (!out) throw IoError("write_file: short write to " + path);
}

void write_file_atomic(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  try {
    DurableFile out(tmp, DurableFile::Mode::kCreate);
    out.append(content);
    out.sync();
  } catch (const IoError& e) {
    std::remove(tmp.c_str());
    throw IoError(std::string("write_file_atomic: ") + e.what());
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw IoError("write_file_atomic: cannot rename " + tmp + " over " + path);
  }
  sync_parent_directory(path);
}

}  // namespace mtd
