// Golden equivalence tests for the zero-allocation serializers: the
// std::to_chars formatters in common/fmt.hpp must reproduce the
// iostream-era CSV encoding and the mtd::Json number encoding byte for
// byte, the rewritten NDJSON writer must emit exactly what the old
// JsonObject-based writer emitted, and binary doubles must round-trip
// bit-exactly through read_binary_events.
#include "common/fmt.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dataset/service_catalog.hpp"
#include "dataset/trace_io.hpp"
#include "events/event_sink.hpp"
#include "events/session_source.hpp"
#include "io/json.hpp"

namespace mtd {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

/// Values spanning everything the writers emit, plus deliberately awkward
/// doubles (non-representable decimals, powers-of-ten boundaries, extreme
/// magnitudes, signed zero).
std::vector<double> golden_doubles() {
  std::vector<double> values = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      0.5,
      42.5,
      630.0,
      1.0 / 3.0,
      0.1 + 0.2,
      1e-4,
      12.345678901234567,
      123456789.0,
      999999.5,
      1000000.5,
      1e15 - 1.0,
      1e15,
      1e15 + 2.0,
      1e16,
      6.022e23,
      5e-324,
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::epsilon(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
  };
  // A cloud of generator-realistic volumes/durations.
  Rng rng(97);
  for (int i = 0; i < 2000; ++i) {
    values.push_back(rng.log10_normal(0.5, 1.2));
    values.push_back(rng.uniform() * 21600.0);
  }
  return values;
}

TEST(SerializationGolden, DoubleG6MatchesIostreamDefaultFormatting) {
  for (double v : golden_doubles()) {
    std::ostringstream os;
    os << v;
    std::string got;
    append_double_g6(got, v);
    EXPECT_EQ(got, os.str()) << "value bits "
                             << std::bit_cast<std::uint64_t>(v);
  }
}

TEST(SerializationGolden, JsonNumberMatchesJsonSerializer) {
  for (double v : golden_doubles()) {
    if (!std::isfinite(v)) continue;  // Json numbers are finite by contract
    std::string got;
    append_json_number(got, v);
    EXPECT_EQ(got, Json(v).dump()) << "value bits "
                                   << std::bit_cast<std::uint64_t>(v);
  }
}

TEST(SerializationGolden, UintMatchesIostream) {
  const std::vector<std::uint64_t> values = {
      0, 1, 9, 10, 600, 1439, 65535, 4294967295ULL,
      std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t v : values) {
    std::ostringstream os;
    os << v;
    std::string got;
    append_uint(got, v);
    EXPECT_EQ(got, os.str());
  }
}

StreamEvent make_session_event(std::uint32_t bs, std::uint64_t seq,
                               std::uint16_t service, double volume_mb,
                               double duration_s, bool transient) {
  Session session;
  session.bs = bs;
  session.service = service;
  session.day = 2;
  session.minute_of_day = 601;
  session.transient = transient;
  session.volume_mb = volume_mb;
  session.duration_s = duration_s;
  return StreamEvent{{bs, 2, 601, seq}, SessionEvent{session}};
}

std::vector<StreamEvent> golden_events() {
  std::vector<StreamEvent> events;
  events.push_back(StreamEvent{{3, 1, 600, 0}, MinuteEvent{5}});
  events.push_back(StreamEvent{{0, 0, 0, 1}, MinuteEvent{0}});

  Rng rng(4242);
  for (std::uint64_t i = 0; i < 200; ++i) {
    events.push_back(make_session_event(
        static_cast<std::uint32_t>(i % 7), 2 + i,
        static_cast<std::uint16_t>(i % service_catalog().size()),
        rng.log10_normal(0.5, 1.2), 1.0 + rng.uniform() * 21599.0,
        rng.bernoulli(0.25)));
  }

  SessionSegment segment;
  segment.hop = 2;
  segment.duration_s = 0.1 + 0.2;
  segment.volume_mb = 1.0 / 3.0;
  segment.first = false;
  segment.last = true;
  events.push_back(StreamEvent{
      {3, 1, 601, 300},
      SegmentEvent{segment, 7, MobilityState::kVehicular, 42}});

  Packet packet;
  packet.time_s = 12.345678901234567;
  packet.size_bytes = 1500;
  events.push_back(StreamEvent{{3, 1, 602, 301}, PacketEvent{packet, 7, 99}});
  return events;
}

/// The retired JsonObject-based NDJSON encoding, kept verbatim as the
/// golden reference for the hand-rolled writer.
std::string json_era_ndjson_line(const StreamEvent& event) {
  JsonObject obj;
  obj.emplace("kind", to_string(event.kind()));
  obj.emplace("bs", static_cast<double>(event.key.bs));
  obj.emplace("day", static_cast<double>(event.key.day));
  obj.emplace("minute", static_cast<double>(event.key.minute_of_day));
  obj.emplace("seq", static_cast<double>(event.key.seq));
  switch (event.kind()) {
    case EventKind::kMinute:
      obj.emplace("arrivals",
                  static_cast<double>(
                      std::get<MinuteEvent>(event.payload).arrivals));
      break;
    case EventKind::kSession: {
      const Session& s = std::get<SessionEvent>(event.payload).session;
      obj.emplace("service", static_cast<double>(s.service));
      obj.emplace("transient", s.transient);
      obj.emplace("volume_mb", s.volume_mb);
      obj.emplace("duration_s", s.duration_s);
      break;
    }
    case EventKind::kSegment: {
      const SegmentEvent& e = std::get<SegmentEvent>(event.payload);
      obj.emplace("service", static_cast<double>(e.service));
      obj.emplace("state", to_string(e.state));
      obj.emplace("session_seq", static_cast<double>(e.session_seq));
      obj.emplace("hop", static_cast<double>(e.segment.hop));
      obj.emplace("first", e.segment.first);
      obj.emplace("last", e.segment.last);
      obj.emplace("volume_mb", e.segment.volume_mb);
      obj.emplace("duration_s", e.segment.duration_s);
      break;
    }
    case EventKind::kPacket: {
      const PacketEvent& e = std::get<PacketEvent>(event.payload);
      obj.emplace("service", static_cast<double>(e.service));
      obj.emplace("session_seq", static_cast<double>(e.session_seq));
      obj.emplace("time_s", e.packet.time_s);
      obj.emplace("size_bytes", static_cast<double>(e.packet.size_bytes));
      break;
    }
  }
  return Json(std::move(obj)).dump() + "\n";
}

TEST(SerializationGolden, NdjsonWriterMatchesJsonObjectEncodingByteForByte) {
  const std::string path = temp_path("mtd_golden.ndjson");
  const auto events = golden_events();
  std::string expected;
  for (const StreamEvent& e : events) expected += json_era_ndjson_line(e);
  {
    NdjsonEventWriter writer(path);
    for (const StreamEvent& e : events) writer.on_event(e);
    writer.close();
  }
  EXPECT_EQ(read_file(path), expected);
  std::remove(path.c_str());
}

TEST(SerializationGolden, CsvWriterMatchesIostreamEncodingByteForByte) {
  const std::string path = temp_path("mtd_golden.csv");
  const auto events = golden_events();
  std::ostringstream expected;
  expected << "bs,service,day,minute_of_day,volume_mb,duration_s\n";
  for (const StreamEvent& e : events) {
    if (e.kind() != EventKind::kSession) continue;
    const Session& s = std::get<SessionEvent>(e.payload).session;
    const std::string& name = service_catalog()[s.service].name;
    expected << s.bs << ',';
    if (name.find(',') != std::string::npos) {
      expected << '"' << name << '"';
    } else {
      expected << name;
    }
    expected << ',' << s.day << ',' << s.minute_of_day << ',' << s.volume_mb
             << ',' << s.duration_s << '\n';
  }
  {
    SessionCsvWriter writer(path);
    for (const StreamEvent& e : events) {
      if (e.kind() != EventKind::kSession) continue;
      writer.on_session(std::get<SessionEvent>(e.payload).session);
    }
    writer.close();
  }
  EXPECT_EQ(read_file(path), expected.str());
  std::remove(path.c_str());
}

TEST(SerializationGolden, BinaryDoublesRoundTripBitExact) {
  // Doubles cross the binary format as raw IEEE-754 bits: reading back
  // must reproduce the exact bit pattern, including signed zero and
  // values with no short decimal representation.
  const std::string path = temp_path("mtd_golden.bin");
  std::vector<double> volumes = {0.0,       -0.0,          1.0 / 3.0,
                                 0.1 + 0.2, 5e-324,        1e-4,
                                 6.022e23,  std::numeric_limits<double>::max()};
  Rng rng(11);
  for (int i = 0; i < 100; ++i) volumes.push_back(rng.log10_normal(0.5, 1.2));

  std::vector<StreamEvent> events;
  for (std::size_t i = 0; i < volumes.size(); ++i) {
    events.push_back(make_session_event(1, i, 0, volumes[i],
                                        volumes[volumes.size() - 1 - i],
                                        false));
  }
  {
    BinaryEventWriter writer(path);
    for (const StreamEvent& e : events) writer.on_event(e);
    writer.close();
  }

  MemorySessionSource::Collector capture;
  EXPECT_EQ(read_binary_events(path, capture), events.size());
  const std::vector<StreamEvent> captured = std::move(capture).take();
  ASSERT_EQ(captured.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Session& in = std::get<SessionEvent>(events[i].payload).session;
    const Session& out = std::get<SessionEvent>(captured[i].payload).session;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(in.volume_mb),
              std::bit_cast<std::uint64_t>(out.volume_mb))
        << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(in.duration_s),
              std::bit_cast<std::uint64_t>(out.duration_s))
        << i;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mtd
