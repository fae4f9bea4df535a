#include "dataset/trace_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/time_utils.hpp"
#include "io/json.hpp"
#include "math/metrics.hpp"

namespace mtd {
namespace {

Network tiny_network() {
  NetworkConfig config;
  config.num_bs = 10;
  config.last_decile_rate = 20.0;
  Rng rng(5);
  return Network::build(config, rng);
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(SessionCsvWriter, WritesHeaderAndRows) {
  const std::string path = temp_path("mtd_trace_writer.csv");
  const Network network = tiny_network();
  {
    SessionCsvWriter writer(path);
    Session session;
    session.bs = 3;
    session.service = static_cast<std::uint16_t>(service_index("Netflix"));
    session.day = 1;
    session.minute_of_day = 600;
    session.volume_mb = 42.5;
    session.duration_s = 630.0;
    writer.on_session(session);
    EXPECT_EQ(writer.sessions_written(), 1u);
  }
  const std::string content = read_file(path);
  EXPECT_EQ(content.find("bs,service,day,minute_of_day,volume_mb,duration_s"),
            0u);
  EXPECT_NE(content.find("3,Netflix,1,600,42.5,630"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SessionCsvWriter, CloseIsIdempotentOnSuccess) {
  const std::string path = temp_path("mtd_trace_close.csv");
  SessionCsvWriter writer(path);
  EXPECT_FALSE(writer.write_failed());
  writer.close();
  writer.close();  // second close is a no-op, not an error
  EXPECT_FALSE(writer.write_failed());
  std::remove(path.c_str());
}

TEST(SessionCsvWriter, ReportsWriteFailureOnClose) {
  // /dev/full accepts opens and swallows nothing: every flush fails with
  // ENOSPC, which is exactly the silent-truncation hazard close() exists to
  // surface.
  if (!std::ofstream("/dev/full").is_open()) {
    GTEST_SKIP() << "/dev/full not available";
  }
  SessionCsvWriter writer("/dev/full");
  Session session;
  session.bs = 0;
  session.service = static_cast<std::uint16_t>(service_index("Netflix"));
  session.volume_mb = 1.0;
  session.duration_s = 10.0;
  // Exceed the stream buffer so at least one write has already hit the
  // device before close().
  for (int i = 0; i < 100000; ++i) writer.on_session(session);
  EXPECT_THROW(writer.close(), Error);
  EXPECT_TRUE(writer.write_failed());
}

TEST(SessionCsvWriter, DestructorSwallowsTheFailureButReportsIt) {
  if (!std::ofstream("/dev/full").is_open()) {
    GTEST_SKIP() << "/dev/full not available";
  }
  testing::internal::CaptureStderr();
  {
    SessionCsvWriter writer("/dev/full");
    Session session;
    session.service = static_cast<std::uint16_t>(service_index("Netflix"));
    session.volume_mb = 1.0;
    session.duration_s = 10.0;
    for (int i = 0; i < 100000; ++i) writer.on_session(session);
    // Destructor runs close() and must not throw.
  }
  const std::string stderr_text = testing::internal::GetCapturedStderr();
  EXPECT_NE(stderr_text.find("write failure"), std::string::npos);
}

TEST(TraceIo, RoundTripPreservesTheDataset) {
  // Generate a trace into CSV and, separately, into a dataset; replay the
  // CSV into a second dataset, and compare the aggregates.
  const Network network = tiny_network();
  TraceConfig trace;
  trace.num_days = 1;
  trace.seed = 77;
  const std::string path = temp_path("mtd_trace_roundtrip.csv");

  const TraceGenerator generator(network, trace);
  MeasurementDataset original(network, trace.num_days);
  generator.run(original);
  original.finalize();
  {
    SessionCsvWriter writer(path);
    generator.run(writer);
  }

  MeasurementDataset replayed(network, trace.num_days);
  const std::uint64_t n = replay_csv_trace(path, network, replayed);
  replayed.finalize();

  EXPECT_EQ(n, original.total_sessions());
  EXPECT_EQ(replayed.total_sessions(), original.total_sessions());
  EXPECT_NEAR(replayed.total_volume_mb() / original.total_volume_mb(), 1.0,
              1e-6);

  // Per-service aggregates survive the round trip (volumes pass through
  // a decimal print, so PDFs agree to printing precision).
  const std::size_t fb = service_index("Facebook");
  EXPECT_EQ(replayed.slice(fb, Slice::kTotal).sessions,
            original.slice(fb, Slice::kTotal).sessions);
  EXPECT_LT(emd(replayed.slice(fb, Slice::kTotal).normalized_pdf(),
                original.slice(fb, Slice::kTotal).normalized_pdf()),
            1e-3);
  std::remove(path.c_str());
}

TEST(TraceIo, ReplayReconstructsArrivalCounts) {
  const Network network = tiny_network();
  TraceConfig trace;
  trace.num_days = 1;
  const std::string path = temp_path("mtd_trace_arrivals.csv");
  {
    SessionCsvWriter writer(path);
    TraceGenerator(network, trace).run(writer);
  }
  MeasurementDataset replayed(network, trace.num_days);
  replay_csv_trace(path, network, replayed);
  replayed.finalize();
  // Arrival statistics populated per decile (zero minutes included).
  for (std::uint8_t d = 0; d < kNumDeciles; ++d) {
    EXPECT_EQ(replayed.decile_arrivals(d).day_stats.count() +
                  replayed.decile_arrivals(d).night_stats.count(),
              kMinutesPerDay * network.in_decile(d).size());
  }
  std::remove(path.c_str());
}

// A trace written in generation order replays in that order: cells in
// (BS, day) order, each cell's rows by minute, rows of one minute in file
// order. So a CSV replayed into a second writer reproduces its input byte
// for byte, and the dv-curve sums fold in the same order as the original.
TEST(TraceIo, CsvReplayedIntoAWriterIsByteIdentical) {
  NetworkConfig config;
  config.num_bs = 10;
  config.last_decile_rate = 30.0;
  Rng rng(5);
  const Network network = Network::build(config, rng);
  TraceConfig trace;
  trace.num_days = 1;
  trace.seed = 77;
  const std::string original = temp_path("mtd_trace_identity_in.csv");
  const std::string copy = temp_path("mtd_trace_identity_out.csv");
  {
    SessionCsvWriter writer(original);
    TraceGenerator(network, trace).run(writer);
    writer.close();
  }
  {
    SessionCsvWriter writer(copy);
    EXPECT_GT(replay_csv_trace(original, network, writer), 0u);
    writer.close();
  }
  const std::string in = read_file(original);
  const std::string out = read_file(copy);
  EXPECT_EQ(in.size(), out.size());
  const auto diff = std::mismatch(in.begin(), in.end(), out.begin(), out.end());
  EXPECT_TRUE(diff.first == in.end() && diff.second == out.end())
      << "first difference at byte " << (diff.first - in.begin());
  std::remove(original.c_str());
  std::remove(copy.c_str());
}

TEST(TraceIo, RejectsMalformedInput) {
  const Network network = tiny_network();
  MeasurementDataset sink(network, 1);
  const std::string path = temp_path("mtd_trace_bad.csv");

  write_file(path, "");
  EXPECT_THROW(replay_csv_trace(path, network, sink), ParseError);

  write_file(path, "wrong,header\n");
  EXPECT_THROW(replay_csv_trace(path, network, sink), ParseError);

  const std::string header =
      "bs,service,day,minute_of_day,volume_mb,duration_s\n";
  write_file(path, header + "0,Netflix,0,100\n");  // too few fields
  EXPECT_THROW(replay_csv_trace(path, network, sink), ParseError);

  write_file(path, header + "999,Netflix,0,100,1.0,10\n");  // bad BS
  EXPECT_THROW(replay_csv_trace(path, network, sink), ParseError);

  write_file(path, header + "0,NoSuchApp,0,100,1.0,10\n");  // bad service
  EXPECT_THROW(replay_csv_trace(path, network, sink), InvalidArgument);

  write_file(path, header + "0,Netflix,0,2000,1.0,10\n");  // bad minute
  EXPECT_THROW(replay_csv_trace(path, network, sink), ParseError);

  write_file(path, header + "0,Netflix,0,100,-1.0,10\n");  // bad volume
  EXPECT_THROW(replay_csv_trace(path, network, sink), ParseError);

  // from_chars parses these; none is a finite positive value.
  for (const char* row :
       {"0,Netflix,0,100,inf,10\n", "0,Netflix,0,100,nan,10\n",
        "0,Netflix,0,100,-inf,10\n", "0,Netflix,0,100,1.0,inf\n",
        "0,Netflix,0,100,1.0,nan\n", "0,Netflix,0,100,1.0,-inf\n"}) {
    write_file(path, header + "0,Netflix,0,100,1.0,10\n" + row);
    try {
      (void)replay_csv_trace(path, network, sink);
      ADD_FAILURE() << "accepted " << row;
    } catch (const ParseError& error) {
      EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos)
          << error.what();
    }
  }

  write_file(path, header + "0,Netflix,0,abc,1.0,10\n");  // bad integer
  EXPECT_THROW(replay_csv_trace(path, network, sink), ParseError);

  EXPECT_THROW(replay_csv_trace("/nonexistent/file.csv", network, sink),
               Error);
  std::remove(path.c_str());
}

// The day column is 16 bits wide in a Session; a larger day used to wrap
// (65,536 replayed as day 0) instead of failing.
TEST(TraceIo, RejectsADayBeyondSixteenBits) {
  const Network network = tiny_network();
  const std::string path = temp_path("mtd_trace_day.csv");
  const std::string header =
      "bs,service,day,minute_of_day,volume_mb,duration_s\n";

  struct DaySink final : TraceSink {
    std::vector<std::uint16_t> days;
    void on_minute(const BaseStation&, std::size_t, std::size_t,
                   std::uint32_t) override {}
    void on_session(const Session& session) override {
      days.push_back(session.day);
    }
  };
  DaySink last_day;
  write_file(path, header + "0,Netflix,65535,100,1.0,10\n");
  EXPECT_EQ(replay_csv_trace(path, network, last_day), 1u);
  EXPECT_EQ(last_day.days, std::vector<std::uint16_t>{65535});

  for (const char* day : {"65536", "131072", "18446744073709551615"}) {
    write_file(path, header + "0,Netflix,0,100,1.0,10\n0,Netflix," + day +
                         ",100,1.0,10\n");
    DaySink sink;
    try {
      (void)replay_csv_trace(path, network, sink);
      ADD_FAILURE() << "accepted day " << day;
    } catch (const ParseError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("line 3"), std::string::npos) << what;
      EXPECT_NE(what.find(day), std::string::npos) << what;
    }
    EXPECT_TRUE(sink.days.empty());
  }
  std::remove(path.c_str());
}

TEST(TraceIo, QuotedServiceNamesParse) {
  const Network network = tiny_network();
  MeasurementDataset sink(network, 1);
  const std::string path = temp_path("mtd_trace_quoted.csv");
  write_file(path,
             "bs,service,day,minute_of_day,volume_mb,duration_s\n"
             "0,\"Netflix\",0,100,1.5,30\n");
  EXPECT_EQ(replay_csv_trace(path, network, sink), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mtd
