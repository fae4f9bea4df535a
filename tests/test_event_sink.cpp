// Sink-layer tests: combinator semantics (fan-out under both error
// policies, kind filtering), the three writers (CSV adapter parity with
// SessionCsvWriter, ndjson schema, binary round trip), and the error paths
// — throwing branches, close failures, truncated binary logs.
#include "events/event_sink.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/time_utils.hpp"
#include "dataset/service_catalog.hpp"
#include "io/json.hpp"

namespace mtd {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

Network tiny_network() {
  NetworkConfig config;
  config.num_bs = 10;
  config.last_decile_rate = 20.0;
  Rng rng(5);
  return Network::build(config, rng);
}

StreamEvent minute_event(std::uint32_t bs, std::uint16_t day,
                         std::uint16_t minute, std::uint64_t seq,
                         std::uint32_t arrivals) {
  return StreamEvent{{bs, day, minute, seq}, MinuteEvent{arrivals}};
}

StreamEvent session_event(std::uint32_t bs, std::uint64_t seq,
                          double volume_mb, double duration_s) {
  Session session;
  session.bs = bs;
  session.service = static_cast<std::uint16_t>(service_index("Netflix"));
  session.day = 1;
  session.minute_of_day = 600;
  session.volume_mb = volume_mb;
  session.duration_s = duration_s;
  return StreamEvent{{bs, 1, 600, seq}, SessionEvent{session}};
}

StreamEvent segment_event(std::uint32_t bs, std::uint64_t seq,
                          std::uint64_t session_seq) {
  SessionSegment segment;
  segment.hop = 2;
  // Deliberately non-representable decimals: round trips must be bit-exact,
  // not close.
  segment.duration_s = 0.1 + 0.2;
  segment.volume_mb = 1.0 / 3.0;
  segment.first = false;
  segment.last = true;
  return StreamEvent{
      {bs, 1, 601, seq},
      SegmentEvent{segment, 7, MobilityState::kVehicular, session_seq}};
}

StreamEvent packet_event(std::uint32_t bs, std::uint64_t seq,
                         std::uint64_t session_seq) {
  Packet packet;
  packet.time_s = 12.345678901234567;
  packet.size_bytes = 1500;
  return StreamEvent{{bs, 1, 602, seq}, PacketEvent{packet, 7, session_seq}};
}

std::vector<StreamEvent> mixed_events() {
  return {minute_event(3, 1, 600, 0, 5), session_event(3, 1, 42.5, 630.0),
          segment_event(3, 2, 1), packet_event(3, 3, 1),
          session_event(4, 0, 7.25, 90.0)};
}

/// Records everything it receives.
struct CaptureSink final : EventSink {
  std::vector<StreamEvent> events;
  int closes = 0;

  void on_event(const StreamEvent& event) override {
    events.push_back(event);
  }
  void close() override { ++closes; }
};

/// Throws on selected kinds (all kinds by default).
struct ThrowingSink final : EventSink {
  EventKindMask throw_on = EventKindMask::all();
  std::uint64_t delivered = 0;
  int closes = 0;

  void on_event(const StreamEvent& event) override {
    if (throw_on.contains(event.kind())) {
      throw std::runtime_error("branch rejected " +
                               std::string(to_string(event.kind())));
    }
    ++delivered;
  }
  void close() override { ++closes; }
};

/// Succeeds on every event, fails on close (buffered-write failure shape).
struct CloseFailingSink final : EventSink {
  std::uint64_t delivered = 0;

  void on_event(const StreamEvent&) override { ++delivered; }
  void close() override { throw std::runtime_error("flush failed"); }
};

void expect_events_equal(const StreamEvent& a, const StreamEvent& b) {
  EXPECT_EQ(a.key.bs, b.key.bs);
  EXPECT_EQ(a.key.day, b.key.day);
  EXPECT_EQ(a.key.minute_of_day, b.key.minute_of_day);
  EXPECT_EQ(a.key.seq, b.key.seq);
  ASSERT_EQ(a.kind(), b.kind());
  switch (a.kind()) {
    case EventKind::kMinute:
      EXPECT_EQ(std::get<MinuteEvent>(a.payload).arrivals,
                std::get<MinuteEvent>(b.payload).arrivals);
      break;
    case EventKind::kSession: {
      const Session& sa = std::get<SessionEvent>(a.payload).session;
      const Session& sb = std::get<SessionEvent>(b.payload).session;
      EXPECT_EQ(sa.bs, sb.bs);
      EXPECT_EQ(sa.service, sb.service);
      EXPECT_EQ(sa.day, sb.day);
      EXPECT_EQ(sa.minute_of_day, sb.minute_of_day);
      EXPECT_EQ(sa.transient, sb.transient);
      // Bit-exact, not approximate: the binary format stores IEEE-754 bit
      // patterns.
      EXPECT_EQ(sa.volume_mb, sb.volume_mb);
      EXPECT_EQ(sa.duration_s, sb.duration_s);
      break;
    }
    case EventKind::kSegment: {
      const SegmentEvent& ea = std::get<SegmentEvent>(a.payload);
      const SegmentEvent& eb = std::get<SegmentEvent>(b.payload);
      EXPECT_EQ(ea.service, eb.service);
      EXPECT_EQ(ea.state, eb.state);
      EXPECT_EQ(ea.session_seq, eb.session_seq);
      EXPECT_EQ(ea.segment.hop, eb.segment.hop);
      EXPECT_EQ(ea.segment.first, eb.segment.first);
      EXPECT_EQ(ea.segment.last, eb.segment.last);
      EXPECT_EQ(ea.segment.volume_mb, eb.segment.volume_mb);
      EXPECT_EQ(ea.segment.duration_s, eb.segment.duration_s);
      break;
    }
    case EventKind::kPacket: {
      const PacketEvent& ea = std::get<PacketEvent>(a.payload);
      const PacketEvent& eb = std::get<PacketEvent>(b.payload);
      EXPECT_EQ(ea.service, eb.service);
      EXPECT_EQ(ea.session_seq, eb.session_seq);
      EXPECT_EQ(ea.packet.time_s, eb.packet.time_s);
      EXPECT_EQ(ea.packet.size_bytes, eb.packet.size_bytes);
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// FanOutSink
// ---------------------------------------------------------------------------

TEST(FanOutSink, DeliversEveryEventToEveryBranch) {
  CaptureSink a;
  CaptureSink b;
  FanOutSink fan({&a, &b}, SinkErrorPolicy::kFailFast);
  const auto events = mixed_events();
  for (const StreamEvent& e : events) fan.on_event(e);
  fan.close();

  ASSERT_EQ(fan.num_branches(), 2u);
  ASSERT_EQ(a.events.size(), events.size());
  ASSERT_EQ(b.events.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    expect_events_equal(a.events[i], events[i]);
    expect_events_equal(b.events[i], events[i]);
  }
  EXPECT_EQ(a.closes, 1);
  EXPECT_EQ(b.closes, 1);
  EXPECT_EQ(fan.branch_errors(0), 0u);
  EXPECT_EQ(fan.branch_errors(1), 0u);
}

TEST(FanOutSink, DegradeIsolatesTheThrowingBranch) {
  CaptureSink before;
  ThrowingSink bad;
  bad.throw_on = EventKindMask{}.set(EventKind::kSession);
  CaptureSink after;
  FanOutSink fan({&before, &bad, &after}, SinkErrorPolicy::kDegrade);

  const auto events = mixed_events();  // 2 of 5 are sessions
  for (const StreamEvent& e : events) EXPECT_NO_THROW(fan.on_event(e));

  // The healthy branches saw every event, including those the middle
  // branch rejected: one failing branch degrades itself, never the fan-out.
  EXPECT_EQ(before.events.size(), events.size());
  EXPECT_EQ(after.events.size(), events.size());
  EXPECT_EQ(bad.delivered, events.size() - 2);
  EXPECT_EQ(fan.branch_errors(0), 0u);
  EXPECT_EQ(fan.branch_errors(1), 2u);
  EXPECT_EQ(fan.branch_errors(2), 0u);
  EXPECT_NE(fan.branch_last_error(1).find("branch rejected session"),
            std::string::npos)
      << fan.branch_last_error(1);
  EXPECT_EQ(fan.branch_last_error(0), "");
}

TEST(FanOutSink, FailFastPropagatesTheFirstBranchError) {
  CaptureSink before;
  ThrowingSink bad;
  bad.throw_on = EventKindMask{}.set(EventKind::kSession);
  CaptureSink after;
  FanOutSink fan({&before, &bad, &after}, SinkErrorPolicy::kFailFast);

  EXPECT_NO_THROW(fan.on_event(minute_event(0, 0, 0, 0, 1)));
  EXPECT_THROW(fan.on_event(session_event(0, 1, 1.0, 10.0)),
               std::runtime_error);
  // Branch order is delivery order: the branch before the throwing one got
  // the session, the one after did not.
  EXPECT_EQ(before.events.size(), 2u);
  EXPECT_EQ(after.events.size(), 1u);
}

TEST(FanOutSink, CloseClosesEveryBranchThenRethrows) {
  CloseFailingSink bad;
  CaptureSink good;
  FanOutSink fan({&bad, &good}, SinkErrorPolicy::kFailFast);
  // A close failure means lost data regardless of policy, so it must
  // surface — but only after every other branch had its chance to flush.
  EXPECT_THROW(fan.close(), std::runtime_error);
  EXPECT_EQ(good.closes, 1);
}

// ---------------------------------------------------------------------------
// FilterSink
// ---------------------------------------------------------------------------

TEST(FilterSink, ForwardsOnlySelectedKindsAndClose) {
  CaptureSink inner;
  FilterSink filter(inner, EventKindMask{}
                               .set(EventKind::kSegment)
                               .set(EventKind::kPacket));
  for (const StreamEvent& e : mixed_events()) filter.on_event(e);
  filter.close();

  ASSERT_EQ(inner.events.size(), 2u);
  EXPECT_EQ(inner.events[0].kind(), EventKind::kSegment);
  EXPECT_EQ(inner.events[1].kind(), EventKind::kPacket);
  EXPECT_EQ(inner.closes, 1);
}

// ---------------------------------------------------------------------------
// SessionCsvEventSink
// ---------------------------------------------------------------------------

TEST(SessionCsvEventSink, MatchesDirectWriterByteForByte) {
  const Network network = tiny_network();
  const std::string via_sink = temp_path("mtd_sink_sessions.csv");
  const std::string direct = temp_path("mtd_direct_sessions.csv");

  const auto events = mixed_events();
  {
    SessionCsvEventSink sink(network, via_sink);
    // Non-session kinds are accepted and skipped, so the sink can sit on a
    // full multi-kind stream.
    for (const StreamEvent& e : events) sink.on_event(e);
    sink.close();
    EXPECT_EQ(sink.writer().sessions_written(), 2u);
  }
  {
    SessionCsvWriter writer(direct);
    for (const StreamEvent& e : events) {
      if (e.kind() == EventKind::kSession) {
        writer.on_session(std::get<SessionEvent>(e.payload).session);
      }
    }
    writer.close();
  }
  EXPECT_EQ(read_file(via_sink), read_file(direct));
  std::remove(via_sink.c_str());
  std::remove(direct.c_str());
}

TEST(SessionCsvEventSink, CloseSurfacesBufferedWriteFailure) {
  if (!std::ofstream("/dev/full").is_open()) {
    GTEST_SKIP() << "/dev/full not available";
  }
  const Network network = tiny_network();
  SessionCsvEventSink sink(network, "/dev/full");
  const StreamEvent event = session_event(0, 0, 1.0, 10.0);
  // Exceed the stream buffer so at least one write has already hit the
  // device before close().
  for (int i = 0; i < 100000; ++i) sink.on_event(event);
  EXPECT_THROW(sink.close(), Error);
  EXPECT_TRUE(sink.writer().write_failed());
}

// ---------------------------------------------------------------------------
// NdjsonEventWriter
// ---------------------------------------------------------------------------

TEST(NdjsonEventWriter, EveryLineParsesWithTheDocumentedSchema) {
  const std::string path = temp_path("mtd_events.ndjson");
  const auto events = mixed_events();
  {
    NdjsonEventWriter writer(path);
    for (const StreamEvent& e : events) writer.on_event(e);
    EXPECT_EQ(writer.events_written(), events.size());
    writer.close();
  }

  std::istringstream lines(read_file(path));
  std::string line;
  std::size_t i = 0;
  while (std::getline(lines, line)) {
    ASSERT_LT(i, events.size());
    const Json obj = Json::parse(line);
    EXPECT_EQ(obj.at("kind").as_string(),
              std::string(to_string(events[i].kind())));
    EXPECT_DOUBLE_EQ(obj.at("bs").as_number(),
                     static_cast<double>(events[i].key.bs));
    EXPECT_DOUBLE_EQ(obj.at("seq").as_number(),
                     static_cast<double>(events[i].key.seq));
    switch (events[i].kind()) {
      case EventKind::kMinute:
        EXPECT_TRUE(obj.contains("arrivals"));
        break;
      case EventKind::kSession:
        EXPECT_TRUE(obj.contains("volume_mb"));
        EXPECT_TRUE(obj.contains("transient"));
        break;
      case EventKind::kSegment:
        EXPECT_EQ(obj.at("state").as_string(), "vehicular");
        EXPECT_TRUE(obj.contains("hop"));
        break;
      case EventKind::kPacket:
        EXPECT_TRUE(obj.contains("size_bytes"));
        EXPECT_DOUBLE_EQ(obj.at("session_seq").as_number(), 1.0);
        break;
    }
    ++i;
  }
  EXPECT_EQ(i, events.size());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// BinaryEventWriter / read_binary_events
// ---------------------------------------------------------------------------

TEST(BinaryEvents, RoundTripsEveryKindBitExactly) {
  const std::string path = temp_path("mtd_events.bin");
  const auto events = mixed_events();
  {
    BinaryEventWriter writer(path);
    for (const StreamEvent& e : events) writer.on_event(e);
    EXPECT_EQ(writer.events_written(), events.size());
    writer.close();
  }

  CaptureSink sink;
  EXPECT_EQ(read_binary_events(path, sink), events.size());
  ASSERT_EQ(sink.events.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    expect_events_equal(sink.events[i], events[i]);
  }
  std::remove(path.c_str());
}

TEST(BinaryEvents, RejectsBadMagic) {
  const std::string path = temp_path("mtd_events_magic.bin");
  write_file(path, "NOTMAGIC and then some");
  CaptureSink sink;
  try {
    read_binary_events(path, sink);
    FAIL() << "bad magic must throw";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(BinaryEvents, EveryTruncationPointIsAParseErrorNamingTheFile) {
  const std::string path = temp_path("mtd_events_trunc.bin");
  {
    BinaryEventWriter writer(path);
    for (const StreamEvent& e : mixed_events()) writer.on_event(e);
    writer.close();
  }
  const std::string full = read_file(path);

  // Cutting the file anywhere strictly inside (magic included) must be a
  // loud ParseError, never a silent short read. Cut at every prefix length
  // that does not end exactly on a record boundary, shrinking the one file
  // in place, longest cut first: rewriting it for every cut frees its
  // blocks each time, which is slow on some filesystems.
  for (std::size_t len = full.size(); len-- > 0;) {
    std::filesystem::resize_file(path, len);
    CaptureSink sink;
    try {
      read_binary_events(path, sink);
      // A cut exactly on a record boundary is a valid shorter log.
      continue;
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << "len=" << len << ": " << e.what();
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mtd
