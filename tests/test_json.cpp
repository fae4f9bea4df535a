#include "io/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

namespace mtd {
namespace {

TEST(Json, DefaultIsNull) {
  const Json j;
  EXPECT_TRUE(j.is_null());
  EXPECT_EQ(j.dump(), "null");
}

TEST(Json, ScalarConstructionAndAccess) {
  EXPECT_TRUE(Json(true).as_bool());
  EXPECT_DOUBLE_EQ(Json(3.5).as_number(), 3.5);
  EXPECT_EQ(Json("hi").as_string(), "hi");
  EXPECT_DOUBLE_EQ(Json(42).as_number(), 42.0);
}

TEST(Json, WrongTypeAccessThrows) {
  const Json j(1.0);
  EXPECT_THROW(static_cast<void>(j.as_string()), ParseError);
  EXPECT_THROW(static_cast<void>(j.as_bool()), ParseError);
  EXPECT_THROW(static_cast<void>(j.as_array()), ParseError);
  EXPECT_THROW(static_cast<void>(j.as_object()), ParseError);
  EXPECT_THROW(static_cast<void>(j.at("x")), ParseError);
}

TEST(Json, UintAccessorChecksRangeBeforeTheCast) {
  EXPECT_EQ(json_uint<std::uint32_t>(Json(0.0), "f"), 0u);
  EXPECT_EQ(json_uint<std::uint32_t>(Json(4294967295.0), "f"), 4294967295u);
  EXPECT_EQ(json_uint<std::uint64_t>(Json(0x1p63), "f"), 1ull << 63);
  EXPECT_EQ(json_uint<std::int64_t>(Json(7.0), "f"), 7);
  for (const double bad : {-1.0, -1e-300, 0.5, 4294967296.0, 1e300}) {
    EXPECT_THROW(static_cast<void>(json_uint<std::uint32_t>(Json(bad), "f")),
                 ParseError)
        << bad;
  }
  // 2^64 itself does not fit, nor do infinities and NaN.
  for (const double bad : {0x1p64, HUGE_VAL, -HUGE_VAL, std::nan("")}) {
    EXPECT_THROW(static_cast<void>(json_uint<std::uint64_t>(Json(bad), "f")),
                 ParseError)
        << bad;
  }
  EXPECT_THROW(static_cast<void>(json_uint<std::int64_t>(Json(-1.0), "f")),
               ParseError);
  try {
    static_cast<void>(json_uint<std::uint16_t>(Json(65536.0), "Doc.field"));
    FAIL() << "65536 fit a uint16";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(),
                 "Doc.field: expected an integer in [0, 65535], got 65536");
  }
  EXPECT_THROW(static_cast<void>(json_uint<std::uint32_t>(Json("1"), "f")),
               ParseError);
}

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("-2.5e3").as_number(), -2500.0);
  EXPECT_EQ(Json::parse("\"abc\"").as_string(), "abc");
}

TEST(Json, ParseNestedDocument) {
  const Json doc = Json::parse(R"({
    "name": "Netflix",
    "mu": 1.6,
    "peaks": [{"k": 0.12, "mu": 2.38}, {"k": 0.05, "mu": 0.5}],
    "streaming": true,
    "extra": null
  })");
  EXPECT_EQ(doc.at("name").as_string(), "Netflix");
  EXPECT_DOUBLE_EQ(doc.at("mu").as_number(), 1.6);
  ASSERT_EQ(doc.at("peaks").as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(doc.at("peaks").as_array()[1].at("mu").as_number(), 0.5);
  EXPECT_TRUE(doc.at("streaming").as_bool());
  EXPECT_TRUE(doc.at("extra").is_null());
  EXPECT_TRUE(doc.contains("mu"));
  EXPECT_FALSE(doc.contains("absent"));
  EXPECT_THROW(static_cast<void>(doc.at("absent")), ParseError);
}

TEST(Json, ParseEmptyContainers) {
  EXPECT_TRUE(Json::parse("[]").as_array().empty());
  EXPECT_TRUE(Json::parse("{}").as_object().empty());
  EXPECT_TRUE(Json::parse(" [ ] ").as_array().empty());
}

TEST(Json, StringEscapes) {
  const Json parsed = Json::parse(R"("a\"b\\c\nd\teA")");
  EXPECT_EQ(parsed.as_string(), "a\"b\\c\nd\teA");
  // Round trip through dump.
  const Json again = Json::parse(parsed.dump());
  EXPECT_EQ(again.as_string(), parsed.as_string());
}

TEST(Json, UnicodeEscapeUtf8) {
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xc3\xa9");   // é
  EXPECT_EQ(Json::parse(R"("€")").as_string(), "\xe2\x82\xac"); // €
}

TEST(Json, MalformedInputsThrow) {
  EXPECT_THROW(Json::parse(""), ParseError);
  EXPECT_THROW(Json::parse("{"), ParseError);
  EXPECT_THROW(Json::parse("[1,"), ParseError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), ParseError);
  EXPECT_THROW(Json::parse("tru"), ParseError);
  EXPECT_THROW(Json::parse("1 2"), ParseError);
  EXPECT_THROW(Json::parse("\"unterminated"), ParseError);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), ParseError);
}

TEST(Json, DumpRoundTripPreservesStructure) {
  JsonObject obj;
  obj.emplace("pi", 3.141592653589793);
  obj.emplace("n", -7.0);
  obj.emplace("list", JsonArray{Json(1.0), Json("two"), Json(nullptr)});
  const Json original{std::move(obj)};
  for (int indent : {0, 2, 4}) {
    const Json round = Json::parse(original.dump(indent));
    EXPECT_DOUBLE_EQ(round.at("pi").as_number(), 3.141592653589793);
    EXPECT_DOUBLE_EQ(round.at("n").as_number(), -7.0);
    EXPECT_EQ(round.at("list").as_array().size(), 3u);
    EXPECT_EQ(round.at("list").as_array()[1].as_string(), "two");
  }
}

TEST(Json, IntegersDumpWithoutDecimals) {
  EXPECT_EQ(Json(5.0).dump(), "5");
  EXPECT_EQ(Json(-17.0).dump(), "-17");
}

TEST(Json, DoublesSurviveRoundTrip) {
  const double value = 1.2345678901234567e-5;
  const Json round = Json::parse(Json(value).dump());
  EXPECT_DOUBLE_EQ(round.as_number(), value);
}

TEST(JsonFile, WriteAndReadBack) {
  const std::string path = ::testing::TempDir() + "/mtd_json_test.json";
  write_file(path, R"({"x": 1})");
  const Json doc = Json::parse(read_file(path));
  EXPECT_DOUBLE_EQ(doc.at("x").as_number(), 1.0);
  std::remove(path.c_str());
}

TEST(JsonFile, ReadMissingFileThrows) {
  EXPECT_THROW(read_file("/nonexistent/path/to/file.json"), Error);
}

// The store's manifest-log rewrite publishes through write_file_atomic:
// content goes to `<path>.tmp`, is synced, and is renamed over `path`.
TEST(WriteFileAtomic, ReplaceIsAtomicAndLeavesNoTempFile) {
  const std::string path = ::testing::TempDir() + "/mtd_atomic_replace.txt";
  std::remove(path.c_str());

  // A stale temp file from a previous crash must not break the replace.
  write_file(path + ".tmp", "garbage from a torn write");
  write_file_atomic(path, "first");
  EXPECT_EQ(read_file(path), "first");
  EXPECT_THROW(read_file(path + ".tmp"), Error);  // temp file gone

  // An overwrite publishes the new content in one rename.
  write_file_atomic(path, "second");
  EXPECT_EQ(read_file(path), "second");
  EXPECT_THROW(read_file(path + ".tmp"), Error);
  std::remove(path.c_str());
}

TEST(WriteFileAtomic, FailedWritePreservesThePreviousContent) {
  namespace fs = std::filesystem;
  const std::string path = ::testing::TempDir() + "/mtd_atomic_failed.txt";
  const fs::path tmp = path + ".tmp";
  fs::remove_all(tmp);
  write_file_atomic(path, "previous");

  // The temp file cannot be created where a non-empty directory stands
  // (a read-only mode would not stop a process running as root).
  fs::create_directories(tmp);
  write_file((tmp / "occupant").string(), "x");
  EXPECT_THROW(write_file_atomic(path, "next"), IoError);
  // The previous content is untouched: a reader still finds it whole.
  EXPECT_EQ(read_file(path), "previous");
  fs::remove_all(tmp);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mtd
