#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/fnv.hpp"
#include "common/time_utils.hpp"
#include "dataset/measurement.hpp"
#include "engine/checkpoint.hpp"
#include "engine/engine.hpp"
#include "engine/store_runner.hpp"
#include "events/event_codec.hpp"
#include "events/event_sink.hpp"
#include "events/session_source.hpp"
#include "io/json.hpp"
#include "store/trace_store.hpp"
#include "test_helpers.hpp"

namespace mtd {
namespace {

using test::PerBsRecorder;
using test::expect_identical_streams;

Network make_network(std::size_t n = 10) {
  if (n >= kNumDeciles) {
    NetworkConfig config;
    config.num_bs = n;
    config.last_decile_rate = 25.0;
    Rng rng(9);
    return Network::build(config, rng);
  }
  std::vector<BaseStation> bss(n);
  for (std::size_t i = 0; i < n; ++i) {
    bss[i].decile = static_cast<std::uint8_t>((i * kNumDeciles) / n);
    bss[i].peak_rate = 5.0 + 3.0 * static_cast<double>(i);
    bss[i].offpeak_scale = 0.25;
  }
  return Network::from_base_stations(std::move(bss));
}

TraceConfig make_trace(std::size_t days = 3, std::uint64_t seed = 77) {
  TraceConfig trace;
  trace.num_days = days;
  trace.seed = seed;
  return trace;
}

// The headline checkpoint guarantee: stop at a day boundary, resume (even
// with a different worker count), and the concatenated per-BS session
// sequence is bit-identical to an uninterrupted run.
TEST(EngineCheckpoint, StopAndResumeIsBitIdentical) {
  const Network network = make_network();
  const TraceConfig trace = make_trace();

  PerBsRecorder uninterrupted(network.size());
  StreamEngine full(network, trace);
  const EngineResult full_result = full.run(uninterrupted);
  EXPECT_TRUE(full_result.checkpoint.complete());

  EngineConfig first_leg;
  first_leg.num_workers = 2;
  first_leg.stop_after_days = 1;
  PerBsRecorder resumed_sink(network.size());
  StreamEngine leg1(network, trace, first_leg);
  EngineResult result = leg1.run(resumed_sink);
  ASSERT_FALSE(result.checkpoint.complete());
  EXPECT_EQ(result.checkpoint.next_day(), 1u);
  EXPECT_EQ(result.checkpoint.clock_minute, std::uint64_t(kMinutesPerDay));

  // Resume with a different sharding: 4 workers instead of 2, and run the
  // remaining days through a JSON round trip of the checkpoint.
  EngineConfig second_leg;
  second_leg.num_workers = 4;
  StreamEngine leg2(network, trace, second_leg);
  const EngineCheckpoint reloaded =
      EngineCheckpoint::from_json(result.checkpoint.to_json());
  result = leg2.resume(reloaded, resumed_sink);
  EXPECT_TRUE(result.checkpoint.complete());
  EXPECT_EQ(result.checkpoint.next_day(), trace.num_days);

  expect_identical_streams(resumed_sink, uninterrupted);

  // Cumulative totals carried across the resume.
  EXPECT_EQ(result.checkpoint.sessions_emitted,
            full_result.checkpoint.sessions_emitted);
  EXPECT_EQ(result.checkpoint.minutes_emitted,
            full_result.checkpoint.minutes_emitted);
  EXPECT_DOUBLE_EQ(result.checkpoint.volume_mb,
                   full_result.checkpoint.volume_mb);
}

TEST(EngineCheckpoint, ResumedRunMatchesBatchDataset) {
  const Network network = make_network(8);
  const TraceConfig trace = make_trace(2);
  const MeasurementDataset serial = collect_dataset(network, trace);

  EngineConfig config;
  config.stop_after_days = 1;
  StreamEngine engine(network, trace, config);
  MemorySessionSource::Collector collector;
  EngineResult result = engine.run(collector);
  while (!result.checkpoint.complete()) {
    result = engine.resume(result.checkpoint, collector);
  }
  MemorySessionSource source(std::move(collector).take());
  const MeasurementDataset streamed =
      dataset_from_source(source, network, trace.num_days);

  test::expect_datasets_identical(streamed, serial);
}

TEST(EngineCheckpoint, JsonRoundTripPreservesEverything) {
  EngineCheckpoint cp;
  cp.seed = 0xdeadbeefcafef00dULL;  // > 2^53: must survive JSON (hex-encoded)
  cp.num_days = 45;
  cp.rate_scale = 1.25;
  cp.weekend_rate_factor = 0.85;
  cp.network_fingerprint = 0xffffffffffffffffULL;
  cp.clock_minute = 7ull * kMinutesPerDay;
  cp.sessions_emitted = (1ull << 60) + 12345;  // beyond double precision
  cp.minutes_emitted = 987654;
  cp.volume_mb = 3.14159e9;

  const EngineCheckpoint back = EngineCheckpoint::from_json(cp.to_json());
  EXPECT_EQ(back.seed, cp.seed);
  EXPECT_EQ(back.num_days, cp.num_days);
  EXPECT_DOUBLE_EQ(back.rate_scale, cp.rate_scale);
  EXPECT_DOUBLE_EQ(back.weekend_rate_factor, cp.weekend_rate_factor);
  EXPECT_EQ(back.network_fingerprint, cp.network_fingerprint);
  EXPECT_EQ(back.next_day(), 7u);
  EXPECT_EQ(back.clock_minute, cp.clock_minute);
  EXPECT_EQ(back.sessions_emitted, cp.sessions_emitted);
  EXPECT_EQ(back.minutes_emitted, cp.minutes_emitted);
  EXPECT_DOUBLE_EQ(back.volume_mb, cp.volume_mb);
}

TEST(EngineCheckpoint, SaveLoadRoundTrip) {
  const Network network = make_network(4);
  const TraceConfig trace = make_trace(2);

  EngineConfig config;
  config.stop_after_days = 1;
  StreamEngine engine(network, trace, config);
  // The engine persists nothing itself: the commit hook sees every
  // checkpoint, and its JSON text is what a store manifest embeds.
  std::string text;
  engine.on_checkpoint(
      [&text](const EngineCheckpoint& cp) { text = cp.to_json().dump(); });
  PerBsRecorder sink(network.size());
  const EngineResult result = engine.run(sink);

  const EngineCheckpoint loaded =
      EngineCheckpoint::from_json(Json::parse(text));
  EXPECT_EQ(loaded.clock_minute, result.checkpoint.clock_minute);
  EXPECT_EQ(loaded.sessions_emitted, result.checkpoint.sessions_emitted);
  EXPECT_EQ(loaded.network_fingerprint, result.checkpoint.network_fingerprint);
}

TEST(EngineCheckpoint, ResumeRejectsMismatchedIdentity) {
  const Network network = make_network(6);
  const TraceConfig trace = make_trace(2);

  EngineConfig config;
  config.stop_after_days = 1;
  StreamEngine engine(network, trace, config);
  PerBsRecorder sink(network.size());
  const EngineResult result = engine.run(sink);

  {
    TraceConfig other = trace;
    other.seed = trace.seed + 1;
    StreamEngine wrong(network, other);
    EXPECT_THROW(wrong.resume(result.checkpoint, sink), InvalidArgument);
  }
  {
    TraceConfig other = trace;
    other.num_days = trace.num_days + 1;
    StreamEngine wrong(network, other);
    EXPECT_THROW(wrong.resume(result.checkpoint, sink), InvalidArgument);
  }
  {
    TraceConfig other = trace;
    other.rate_scale = 2.0;
    StreamEngine wrong(network, other);
    EXPECT_THROW(wrong.resume(result.checkpoint, sink), InvalidArgument);
  }
  {
    const Network other_network = [] {
      NetworkConfig nc;
      nc.num_bs = 10;
      Rng rng(10);  // different build seed -> different topology
      return Network::build(nc, rng);
    }();
    StreamEngine wrong(other_network, trace);
    EXPECT_THROW(wrong.resume(result.checkpoint, sink), InvalidArgument);
  }
}

TEST(EngineCheckpoint, FromJsonRejectsCorruptDocuments) {
  EngineCheckpoint cp;
  cp.num_days = 2;
  cp.clock_minute = kMinutesPerDay;
  const Json good = cp.to_json();

  {
    Json bad = good;
    bad.as_object().at("format") = Json("mtd-other-format");
    EXPECT_THROW(EngineCheckpoint::from_json(bad), Error);
  }
  {
    // The one resume cursor is required; any minute, mid-day or not, is a
    // complete cursor on its own.
    Json bad = good;
    bad.as_object().erase("clock_minute");
    EXPECT_THROW(EngineCheckpoint::from_json(bad), Error);
  }
}

TEST(EngineCheckpoint, ResumingACompleteCheckpointIsANoOp) {
  const Network network = make_network(4);
  const TraceConfig trace = make_trace(1);
  StreamEngine engine(network, trace);
  PerBsRecorder sink(network.size());
  const EngineResult result = engine.run(sink);
  ASSERT_TRUE(result.checkpoint.complete());

  PerBsRecorder empty(network.size());
  const EngineResult again = engine.resume(result.checkpoint, empty);
  EXPECT_TRUE(again.checkpoint.complete());
  for (const auto& sessions : empty.per_bs) EXPECT_TRUE(sessions.empty());
  EXPECT_EQ(again.checkpoint.sessions_emitted,
            result.checkpoint.sessions_emitted);
}

// The store manifest is the one place a checkpoint is persisted, and
// load_store_checkpoint its one decoder. A blob torn at ANY byte boundary
// must be rejected with an error that names the blob, its length and where
// parsing failed — the operator's first question after a crash is "which
// bytes, and is it salvageable".
TEST(EngineCheckpoint, TruncatedFilesAreRejectedAtEveryLength) {
  EngineCheckpoint cp;
  cp.seed = 0xabcdef12345ULL;
  cp.num_days = 3;
  cp.clock_minute = 2ull * kMinutesPerDay;
  cp.sessions_emitted = 1234;
  cp.minutes_emitted = 5678;
  cp.volume_mb = 42.5;
  const std::string text = cp.to_json().dump(2);

  // Sanity: the full blob loads, and an empty one means "no checkpoint".
  store::StoreManifest manifest;
  manifest.engine_checkpoint = text;
  ASSERT_TRUE(load_store_checkpoint(manifest).has_value());
  EXPECT_EQ(load_store_checkpoint(manifest)->sessions_emitted, 1234u);
  manifest.engine_checkpoint.clear();
  EXPECT_FALSE(load_store_checkpoint(manifest).has_value());

  for (std::size_t len = 1; len < text.size(); ++len) {
    manifest.engine_checkpoint = text.substr(0, len);
    try {
      (void)load_store_checkpoint(manifest);
      FAIL() << "prefix of " << len << " bytes was accepted";
    } catch (const ParseError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("engine_checkpoint"), std::string::npos) << msg;
      EXPECT_NE(msg.find(std::to_string(len) + " bytes"), std::string::npos)
          << "length missing for prefix " << len << ": " << msg;
      EXPECT_NE(msg.find("offset"), std::string::npos) << msg;
    }
  }
}

TEST(EngineCheckpoint, LoadNamesThePathForStructurallyInvalidFiles) {
  // Parseable JSON that is not a checkpoint: the error must still name
  // the blob and its length, and say why it is not a checkpoint.
  store::StoreManifest manifest;
  manifest.engine_checkpoint = "{\"format\": \"mtd-other-format\"}";
  try {
    (void)load_store_checkpoint(manifest);
    FAIL() << "wrong format was accepted";
  } catch (const ParseError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("invalid engine_checkpoint blob"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find(std::to_string(manifest.engine_checkpoint.size()) +
                       " bytes"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("mtd-engine-checkpoint-v2"), std::string::npos) << msg;
  }
}

// Mismatch diagnostics: the error must say WHICH field diverged and show
// both values, so a failed resume is debuggable from the message alone.
TEST(EngineCheckpoint, ResumeMismatchNamesFieldAndBothValues) {
  const Network network = make_network(6);
  const TraceConfig trace = make_trace(2, 77);  // 77 = 0x4d

  EngineConfig config;
  config.stop_after_days = 1;
  StreamEngine engine(network, trace, config);
  PerBsRecorder sink(network.size());
  const EngineResult result = engine.run(sink);

  const auto expect_message = [](const std::function<void()>& call,
                                 const std::vector<std::string>& needles) {
    try {
      call();
      FAIL() << "mismatch was accepted";
    } catch (const InvalidArgument& e) {
      const std::string msg = e.what();
      for (const std::string& needle : needles) {
        EXPECT_NE(msg.find(needle), std::string::npos)
            << "missing '" << needle << "' in: " << msg;
      }
    }
  };

  {
    TraceConfig other = trace;
    other.seed = 78;  // 0x4e
    StreamEngine wrong(network, other);
    expect_message(
        [&] { wrong.resume(result.checkpoint, sink); },
        {"trace.seed", "expects 0x4e", "checkpoint has 0x4d"});
  }
  {
    TraceConfig other = trace;
    other.num_days = 9;
    StreamEngine wrong(network, other);
    expect_message([&] { wrong.resume(result.checkpoint, sink); },
                   {"trace.num_days", "expects 9", "checkpoint has 2"});
  }
  {
    const Network other_network = [] {
      NetworkConfig nc;
      nc.num_bs = 10;
      Rng rng(10);
      return Network::build(nc, rng);
    }();
    StreamEngine wrong(other_network, trace);
    expect_message([&] { wrong.resume(result.checkpoint, sink); },
                   {"network_fingerprint", "expects 0x", "checkpoint has 0x"});
  }
  {
    EngineCheckpoint beyond = result.checkpoint;
    beyond.clock_minute = (trace.num_days + 1) * kMinutesPerDay;
    StreamEngine fresh(network, trace);
    expect_message([&] { fresh.resume(beyond, sink); },
                   {"next_day=3", "beyond the horizon", "num_days=2"});
  }
}

// The tentpole mid-day guarantee: crash at a minute-interval mark strictly
// inside a day, resume from the v2 checkpoint with a different worker
// count, and the committed-prefix + regenerated-tail stream is
// bit-identical to an uninterrupted run. The checkpoint is an exact cut
// at the sink, so the crash leg records straight into the recorder, dies
// in the commit hook, and the resume (through a JSON round trip) appends
// the tail to the same recorder.
TEST(EngineCheckpoint, MidDayStopAndResumeIsBitIdentical) {
  const Network network = make_network();
  const TraceConfig trace = make_trace(2);

  PerBsRecorder uninterrupted(network.size());
  StreamEngine full(network, trace);
  const EngineResult full_result =
      full.run(static_cast<EventSink&>(uninterrupted));
  EXPECT_TRUE(full_result.checkpoint.complete());

  // Leg 1: crash at the FIRST mid-day mark; the recorder then holds
  // exactly the minutes strictly below it.
  PerBsRecorder resumed(network.size());
  EngineConfig first_leg;
  first_leg.num_workers = 2;
  first_leg.checkpoint_interval_minutes = 311;  // does not divide 1440
  StreamEngine leg1(network, trace, first_leg);
  EngineCheckpoint saved;
  bool have_mark = false;
  leg1.on_checkpoint([&](const EngineCheckpoint& cp) {
    if (cp.mid_day() && !have_mark) {
      saved = cp;
      have_mark = true;
      throw std::runtime_error("simulated crash at the minute mark");
    }
  });
  bool crashed = false;
  try {
    static_cast<void>(leg1.run(resumed));
  } catch (const std::exception&) {
    crashed = true;
  }
  ASSERT_TRUE(crashed);
  ASSERT_TRUE(have_mark);
  EXPECT_EQ(saved.clock_minute, 311u);
  EXPECT_EQ(saved.next_day(), 0u);
  ASSERT_TRUE(saved.mid_day());
  // Nothing at or past the mark reached the sink.
  EXPECT_EQ(resumed.minutes, saved.minutes_emitted);

  // Leg 2: different sharding, checkpoint reloaded from its serialized
  // text — the same path a post-crash recovery takes.
  EngineConfig second_leg;
  second_leg.num_workers = 4;
  second_leg.checkpoint_interval_minutes = 311;
  StreamEngine leg2(network, trace, second_leg);
  const EngineCheckpoint reloaded =
      EngineCheckpoint::from_json(Json::parse(saved.to_json().dump(2)));
  const EngineResult result = leg2.resume(reloaded, resumed);
  EXPECT_TRUE(result.checkpoint.complete());

  EXPECT_EQ(resumed.minutes, uninterrupted.minutes);
  expect_identical_streams(resumed, uninterrupted);
  EXPECT_EQ(result.checkpoint.sessions_emitted,
            full_result.checkpoint.sessions_emitted);
  EXPECT_EQ(result.checkpoint.minutes_emitted,
            full_result.checkpoint.minutes_emitted);
  EXPECT_DOUBLE_EQ(result.checkpoint.volume_mb,
                   full_result.checkpoint.volume_mb);
}

// The commit hook sees exactly one checkpoint per minute of the mark grid —
// every day boundary plus every interval multiple, once where the two
// coincide — in minute order. The committed counters at every position do
// not depend on the worker count.
TEST(EngineCheckpoint, CheckpointSequenceFollowsTheMarkGrid) {
  const Network network = make_network(8);
  TraceConfig trace = make_trace(3);
  trace.rate_scale = 0.25;  // the sequence, not the volume, is under test

  struct NullSink final : EventSink {
    void on_event(const StreamEvent&) override {}
  };
  for (const std::size_t interval : {std::size_t{0}, std::size_t{173},
                                     std::size_t{360}}) {
    SCOPED_TRACE("interval " + std::to_string(interval));
    std::vector<std::uint64_t> grid;
    for (std::uint64_t m = 1; m <= trace.num_days * kMinutesPerDay; ++m) {
      if (m % kMinutesPerDay == 0 || (interval > 0 && m % interval == 0)) {
        grid.push_back(m);
      }
    }
    std::vector<std::vector<EngineCheckpoint>> runs;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
      SCOPED_TRACE("workers " + std::to_string(workers));
      EngineConfig config;
      config.num_workers = workers;
      config.checkpoint_interval_minutes = interval;
      StreamEngine engine(network, trace, config);
      std::vector<EngineCheckpoint> seen;
      engine.on_checkpoint(
          [&seen](const EngineCheckpoint& cp) { seen.push_back(cp); });
      NullSink sink;
      static_cast<void>(engine.run(sink));

      std::vector<std::uint64_t> minutes;
      for (const EngineCheckpoint& cp : seen) {
        minutes.push_back(cp.clock_minute);
      }
      EXPECT_EQ(minutes, grid);
      runs.push_back(std::move(seen));
    }
    ASSERT_EQ(runs[0].size(), runs[1].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[0][i].volume_mb, runs[1][i].volume_mb) << "index " << i;
      EXPECT_EQ(runs[0][i].sessions_emitted, runs[1][i].sessions_emitted)
          << "index " << i;
    }
  }
}

/// Per-BS FNV-1a digest and per-kind counts of every event at or after
/// minute `from` (key and payload, in delivery order per BS); events below
/// `from` are only counted.
struct TailDigestSink final : EventSink {
  std::uint64_t from;
  std::uint64_t before = 0;
  std::array<std::uint64_t, kNumEventKinds> counts{};
  std::vector<std::uint64_t> per_bs;

  TailDigestSink(std::size_t num_bs, std::uint64_t from_minute)
      : from(from_minute), per_bs(num_bs, kFnvOffsetBasis) {}

  void on_event(const StreamEvent& event) override {
    if (event.key.clock_minute() < from) {
      ++before;
      return;
    }
    ++counts[static_cast<std::size_t>(event.kind())];
    char buf[kMaxEventPayloadBytes];
    const std::size_t len = encode_event_payload(event, buf);
    per_bs[event.key.bs] =
        fnv1a64(std::string_view(buf, len), per_bs[event.key.bs]);
  }
};

// A mid-day checkpoint is O(1) in network size: the first mid-day
// checkpoint of a 6-BS and of a 300-BS network have the same keys, and
// their documents differ in length only by the width of the counter and
// fingerprint values.
TEST(EngineCheckpoint, MidDayCheckpointSizeDoesNotDependOnNetworkSize) {
  const auto first_mid_day = [](const Network& network) {
    TraceConfig trace = make_trace(2);
    trace.rate_scale = 0.25;
    EngineConfig config;
    config.num_workers = 3;
    config.checkpoint_interval_minutes = 173;
    StreamEngine engine(network, trace, config);
    EngineCheckpoint first;
    engine.on_checkpoint([&first](const EngineCheckpoint& cp) {
      first = cp;
      throw std::runtime_error("stop at the first mark");
    });
    struct NullSink final : EventSink {
      void on_event(const StreamEvent&) override {}
    } sink;
    EXPECT_THROW(static_cast<void>(engine.run(sink)), std::runtime_error);
    EXPECT_EQ(first.clock_minute, 173u);
    return first.to_json();
  };
  const Json small = first_mid_day(make_network(6));
  const Json large = first_mid_day(make_network(300));

  const std::vector<std::string> variable_width = {
      "network_fingerprint", "sessions_emitted", "minutes_emitted",
      "segments_emitted",    "packets_emitted",  "volume_mb"};
  const JsonObject& a = small.as_object();
  const JsonObject& b = large.as_object();
  ASSERT_EQ(a.size(), b.size());
  std::size_t counter_width = 0;
  for (const auto& [key, value] : a) {
    ASSERT_TRUE(large.contains(key)) << key;
    const std::size_t wa = value.dump().size();
    const std::size_t wb = b.at(key).dump().size();
    if (std::find(variable_width.begin(), variable_width.end(), key) !=
        variable_width.end()) {
      counter_width += std::max(wa, wb);
    } else {
      EXPECT_EQ(wa, wb) << key;
    }
  }
  const std::size_t la = small.dump(2).size();
  const std::size_t lb = large.dump(2).size();
  EXPECT_LE(std::max(la, lb) - std::min(la, lb), counter_width);
}

// Mid-day checkpoints used to carry one raw stream cursor per BS under
// "bs_states". This is such a writer's first mid-day checkpoint of day 1
// (minute 1555) for the 3-BS network of the test below, every event kind
// enabled. The cursors are ignored on load, the rest equals the checkpoint
// the engine writes at that minute now, and resuming from it continues the
// uninterrupted stream bit for bit.
constexpr const char* kCursorCarryingMidDayCheckpoint = R"json({
  "bs_states": [
    {
      "bs": 0,
      "day_volume_mb": 140.76924927677965,
      "next_seq": "0x4e4",
      "packet_rng": {
        "has_spare": false,
        "spare": 0,
        "words": [
          "0xa03d2b54cb13a5b8",
          "0x79edea6c18200172",
          "0xfdc1e82045e3d51a",
          "0x8e38b2f8de41649c"
        ]
      },
      "segment_rng": {
        "has_spare": true,
        "spare": -0.085707416415686508,
        "words": [
          "0x8819b1448012bb0e",
          "0x737815423e52a7da",
          "0x2bef996e9e1bca15",
          "0xc5570edbbdac04fc"
        ]
      },
      "session_rng": {
        "has_spare": true,
        "spare": -0.56973418806301623,
        "words": [
          "0x64b7f634044cd5b7",
          "0x3bb6285495b836e1",
          "0xf9d44808decab4ca",
          "0x233ce0670a76a520"
        ]
      }
    },
    {
      "bs": 1,
      "day_volume_mb": 119.32020277741084,
      "next_seq": "0x28b",
      "packet_rng": {
        "has_spare": false,
        "spare": 0,
        "words": [
          "0x7d713a029011caa5",
          "0x71d6183496369409",
          "0x810c38292c68f583",
          "0xecbf6ab350ce7321"
        ]
      },
      "segment_rng": {
        "has_spare": true,
        "spare": 0.56974200919260476,
        "words": [
          "0x75991a64c8b31c8c",
          "0x99ff5dd98953ff98",
          "0xd1c5cac560887b47",
          "0xb876bbac7e7407eb"
        ]
      },
      "session_rng": {
        "has_spare": true,
        "spare": -0.080235718580272758,
        "words": [
          "0x7a49d37e04e4b0e3",
          "0x46b7e8d0338b567f",
          "0x16a27de743faad04",
          "0x117bdcb8b401b1fd"
        ]
      }
    },
    {
      "bs": 2,
      "day_volume_mb": 52.868935680804967,
      "next_seq": "0x203",
      "packet_rng": {
        "has_spare": false,
        "spare": 0,
        "words": [
          "0x6e327f2fb518a65c",
          "0x3c4005690212b1d8",
          "0x52939eb61f9bc608",
          "0x62b15935b8195a24"
        ]
      },
      "segment_rng": {
        "has_spare": true,
        "spare": 0.31737433356563077,
        "words": [
          "0x9e86c96052b09c37",
          "0xd2413e703dc6c48",
          "0xd20b7a119b947d48",
          "0x64b6dc5b38901100"
        ]
      },
      "session_rng": {
        "has_spare": false,
        "spare": 1.5006140762657048,
        "words": [
          "0x4aa050cbbe8292db",
          "0x2448d997adb51792",
          "0xe3a9c5c1d163fe4e",
          "0xed56affc4fc1acb5"
        ]
      }
    }
  ],
  "clock_minute": 1555,
  "format": "mtd-engine-checkpoint-v2",
  "minutes_emitted": "0x1239",
  "network_fingerprint": "0x52e8409b4341e7d4",
  "num_days": 2,
  "packets_emitted": "0x56cd7",
  "rate_scale": 1,
  "seed": "0x4d",
  "segments_emitted": "0xa7dc",
  "sessions_emitted": "0x5786",
  "volume_mb": 130099.6051873659,
  "weekend_rate_factor": 0.84999999999999998
})json";

TEST(EngineCheckpoint, MidDayDocumentsWithStreamCursorsStillResume) {
  const Network network = make_network(3);
  const TraceConfig trace = make_trace(2);
  EngineConfig config;
  config.num_workers = 2;
  config.checkpoint_interval_minutes = 311;
  config.event_kinds = EventKindMask::all();
  config.packet.max_packets = 16;  // bound the heavy-tail expansion

  const EngineCheckpoint loaded = EngineCheckpoint::from_json(
      Json::parse(kCursorCarryingMidDayCheckpoint));
  ASSERT_EQ(loaded.clock_minute, 1555u);
  EXPECT_FALSE(loaded.to_json().contains("bs_states"));

  TailDigestSink uninterrupted(network.size(), loaded.clock_minute);
  StreamEngine reference(network, trace, config);
  std::string written;
  reference.on_checkpoint([&](const EngineCheckpoint& cp) {
    if (cp.clock_minute == loaded.clock_minute) written = cp.to_json().dump();
  });
  const EngineResult full = reference.run(uninterrupted);
  EXPECT_EQ(written, loaded.to_json().dump());

  TailDigestSink resumed(network.size(), loaded.clock_minute);
  config.num_workers = 3;
  StreamEngine leg(network, trace, config);
  const EngineResult result = leg.resume(loaded, resumed);
  EXPECT_EQ(resumed.before, 0u);
  EXPECT_EQ(resumed.counts, uninterrupted.counts);
  EXPECT_EQ(resumed.per_bs, uninterrupted.per_bs);
  EXPECT_GT(resumed.counts[static_cast<std::size_t>(EventKind::kPacket)], 0u);
  EXPECT_EQ(result.checkpoint.to_json().dump(),
            full.checkpoint.to_json().dump());
}

// A mid-day resume replays its day's prefix before it emits anything: no
// clock wait and no produced event for up to a day of generation. Under a
// paced clock and an armed watchdog the resume must neither compute a wait
// for the replayed minutes nor look stalled while it replays; the replay
// below (one worker, 600 BSs at twice the base rate, 1429 minutes) takes
// several times the watchdog's deadline on a typical host.
TEST(EngineCheckpoint, PacedMidDayResumeWithAWatchdogReplaysItsPrefix) {
  const Network network = make_network(600);
  TraceConfig trace = make_trace(1);
  trace.rate_scale = 2.0;
  const std::uint64_t mark = 1429;  // 11 minutes before the day ends

  EngineConfig config;
  config.num_workers = 1;
  config.checkpoint_interval_minutes = mark;
  TailDigestSink uninterrupted(network.size(), mark);
  StreamEngine reference(network, trace, config);
  EngineCheckpoint saved;
  reference.on_checkpoint([&saved](const EngineCheckpoint& cp) {
    if (cp.mid_day()) saved = cp;
  });
  const EngineResult full = reference.run(uninterrupted);
  ASSERT_EQ(saved.clock_minute, mark);

  config.time_scale = 1.0e6;  // 60 us per simulated minute
  config.watchdog_timeout_s = 0.25;
  TailDigestSink resumed(network.size(), mark);
  StreamEngine leg(network, trace, config);
  const EngineResult result = leg.resume(saved, resumed);
  EXPECT_EQ(resumed.before, 0u);
  EXPECT_EQ(resumed.counts, uninterrupted.counts);
  EXPECT_EQ(resumed.per_bs, uninterrupted.per_bs);
  EXPECT_EQ(result.checkpoint.to_json().dump(),
            full.checkpoint.to_json().dump());
  EXPECT_TRUE(result.telemetry.accounted_for());
}

// The retired v1 day-boundary format no longer loads: the same document the
// old writer emitted is a ParseError naming the one accepted format. A v2
// document from an earlier writer, which also carried a day cursor,
// per-shard cursors and an RNG-stream summary next to clock_minute, still
// loads: those keys are ignored.
TEST(EngineCheckpoint, V1DocumentsAreRejected) {
  const char* doc = R"json({
    "format": "mtd-engine-checkpoint-v1",
    "seed": "0x4d",
    "num_days": 3,
    "rate_scale": 1.5,
    "weekend_rate_factor": 0.85,
    "network_fingerprint": "0xfeedface",
    "next_day": 2,
    "clock_minute": 2880,
    "sessions_emitted": "0x64",
    "minutes_emitted": "0x5a0",
    "volume_mb": 12.5,
    "shards": [
      {"shard": 0, "next_day": 2, "sessions_produced": "0x32"},
      {"shard": 1, "next_day": 2, "sessions_produced": "0x32"}
    ]
  })json";
  try {
    (void)EngineCheckpoint::from_json(Json::parse(doc));
    FAIL() << "a v1 checkpoint loaded";
  } catch (const ParseError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("mtd-engine-checkpoint-v2"), std::string::npos)
        << what;
  }

  const char* earlier_v2 = R"json({
    "format": "mtd-engine-checkpoint-v2",
    "seed": "0x4d",
    "num_days": 3,
    "rate_scale": 1.5,
    "weekend_rate_factor": 0.85,
    "network_fingerprint": "0xfeedface",
    "next_day": 2,
    "clock_minute": 2880,
    "sessions_emitted": "0x64",
    "minutes_emitted": "0x5a0",
    "segments_emitted": "0x0",
    "packets_emitted": "0x0",
    "volume_mb": 12.5,
    "rng_streams": {"kind": "per-bs-day-reseed", "next_day": 2,
                    "seed": "0x4d"},
    "shards": [
      {"shard": 0, "next_day": 2, "sessions_produced": "0x32"},
      {"shard": 1, "next_day": 2, "sessions_produced": "0x32"}
    ]
  })json";
  EngineCheckpoint expected;
  expected.seed = 0x4d;
  expected.num_days = 3;
  expected.rate_scale = 1.5;
  expected.weekend_rate_factor = 0.85;
  expected.network_fingerprint = 0xfeedface;
  expected.clock_minute = 2880;
  expected.sessions_emitted = 0x64;
  expected.minutes_emitted = 0x5a0;
  expected.volume_mb = 12.5;
  const EngineCheckpoint loaded =
      EngineCheckpoint::from_json(Json::parse(earlier_v2));
  EXPECT_EQ(loaded.to_json().dump(2), expected.to_json().dump(2));
  EXPECT_EQ(loaded.next_day(), 2u);
  EXPECT_FALSE(loaded.mid_day());
}

// Every integer field is range-checked before the cast: a negative,
// fractional or huge number is a ParseError naming the field, never a
// wrapped or truncated value.
TEST(EngineCheckpoint, IntegerFieldsAreRangeChecked) {
  EngineCheckpoint cp;
  cp.num_days = 2;
  cp.clock_minute = 311;
  const Json good = cp.to_json();
  ASSERT_EQ(EngineCheckpoint::from_json(good).clock_minute, 311u);

  const std::vector<std::pair<std::string, std::vector<const char*>>>
      fields = {
          {"EngineCheckpoint.num_days", {"num_days"}},
          {"EngineCheckpoint.clock_minute", {"clock_minute"}},
      };
  for (const auto& [name, path] : fields) {
    for (const double value : {-1.0, 0.5, 1e300}) {
      Json bad = good;
      test::json_node(bad, path) = Json(value);
      try {
        (void)EngineCheckpoint::from_json(bad);
        ADD_FAILURE() << name << " = " << value << " loaded";
      } catch (const ParseError& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find(name + ": expected an integer"),
                  std::string::npos)
            << name << " = " << value << ": " << what;
      }
    }
  }
}

TEST(NetworkFingerprint, SensitiveToTopology) {
  const Network a = make_network(10);
  const Network b = [] {
    NetworkConfig nc;
    nc.num_bs = 10;
    Rng rng(10);
    return Network::build(nc, rng);
  }();
  EXPECT_EQ(network_fingerprint(a), network_fingerprint(a));
  EXPECT_NE(network_fingerprint(a), network_fingerprint(b));
}

}  // namespace
}  // namespace mtd
