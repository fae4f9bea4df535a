#include "scenario/scenario.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

namespace mtd {
namespace {

TEST(ScenarioJson, NetworkConfigRoundTrip) {
  NetworkConfig config;
  config.num_bs = 123;
  config.fraction_5g = 0.4;
  config.first_decile_rate = 2.0;
  config.last_decile_rate = 50.0;
  NetworkConfig restored;
  from_json(to_json(config), restored);
  EXPECT_EQ(restored.num_bs, 123u);
  EXPECT_DOUBLE_EQ(restored.fraction_5g, 0.4);
  EXPECT_DOUBLE_EQ(restored.first_decile_rate, 2.0);
  EXPECT_DOUBLE_EQ(restored.last_decile_rate, 50.0);
}

TEST(ScenarioJson, PartialObjectsKeepDefaults) {
  TraceConfig config;
  from_json(Json::parse(R"({"num_days": 14})"), config);
  EXPECT_EQ(config.num_days, 14u);
  EXPECT_EQ(config.seed, TraceConfig{}.seed);
  EXPECT_DOUBLE_EQ(config.rate_scale, 1.0);
}

TEST(ScenarioJson, UnknownKeysAreRejected) {
  TraceConfig config;
  EXPECT_THROW(from_json(Json::parse(R"({"num_dayz": 14})"), config),
               ParseError);
  VranConfig vran;
  EXPECT_THROW(from_json(Json::parse(R"({"rus": 3})"), vran), ParseError);
}

TEST(ScenarioJson, SlicingConfigRoundTrip) {
  SlicingConfig config;
  config.num_antennas = 7;
  config.sla_quantile = 0.99;
  config.fig12_service = "Netflix";
  SlicingConfig restored;
  from_json(to_json(config), restored);
  EXPECT_EQ(restored.num_antennas, 7u);
  EXPECT_DOUBLE_EQ(restored.sla_quantile, 0.99);
  EXPECT_EQ(restored.fig12_service, "Netflix");
}

TEST(ScenarioJson, VranConfigRoundTripIncludingPolicy) {
  VranConfig config;
  config.packing = PackingPolicy::kWorstFitDecreasing;
  config.ps.idle_w = 80.0;
  config.ru_decile = 7;
  VranConfig restored;
  from_json(to_json(config), restored);
  EXPECT_EQ(restored.packing, PackingPolicy::kWorstFitDecreasing);
  EXPECT_DOUBLE_EQ(restored.ps.idle_w, 80.0);
  EXPECT_EQ(restored.ru_decile, 7);
}

TEST(ScenarioJson, BadPackingPolicyThrows) {
  VranConfig config;
  EXPECT_THROW(from_json(Json::parse(R"({"packing": "magic"})"), config),
               ParseError);
}

TEST(ScenarioJson, MobilityAndPacketConfigsRoundTrip) {
  MobilityConfig mobility;
  mobility.p_vehicular = 0.5;
  mobility.vehicular_dwell_median_s = 30.0;
  MobilityConfig mob_restored;
  from_json(to_json(mobility), mob_restored);
  EXPECT_DOUBLE_EQ(mob_restored.p_vehicular, 0.5);
  EXPECT_DOUBLE_EQ(mob_restored.vehicular_dwell_median_s, 30.0);

  PacketScheduleConfig packet;
  packet.mtu_bytes = 9000;
  packet.duty_cycle = 0.7;
  PacketScheduleConfig pkt_restored;
  from_json(to_json(packet), pkt_restored);
  EXPECT_EQ(pkt_restored.mtu_bytes, 9000u);
  EXPECT_DOUBLE_EQ(pkt_restored.duty_cycle, 0.7);
}

TEST(ScenarioJson, EngineConfigRoundTrip) {
  EngineConfig config;
  config.num_workers = 6;
  config.queue_capacity = 1024;
  config.batch_size = 16;
  config.kernel = GeneratorKernel::kBatch;
  config.event_kinds = EventKindMask::all();
  config.mobility.vehicular_dwell_median_s = 33.0;
  config.packet.mtu_bytes = 9000;
  config.backpressure = BackpressurePolicy::kDropNewest;
  config.time_scale = 60.0;
  config.telemetry_period_s = 2.5;
  config.stop_after_days = 3;
  config.checkpoint_interval_minutes = 173;
  EngineConfig restored;
  from_json(to_json(config), restored);
  EXPECT_EQ(restored.num_workers, 6u);
  EXPECT_EQ(restored.queue_capacity, 1024u);
  EXPECT_EQ(restored.batch_size, 16u);
  EXPECT_EQ(restored.kernel, GeneratorKernel::kBatch);
  EXPECT_EQ(restored.event_kinds, EventKindMask::all());
  EXPECT_DOUBLE_EQ(restored.mobility.vehicular_dwell_median_s, 33.0);
  EXPECT_EQ(restored.packet.mtu_bytes, 9000u);
  EXPECT_EQ(restored.backpressure, BackpressurePolicy::kDropNewest);
  EXPECT_DOUBLE_EQ(restored.time_scale, 60.0);
  EXPECT_DOUBLE_EQ(restored.telemetry_period_s, 2.5);
  EXPECT_EQ(restored.stop_after_days, 3u);
  EXPECT_EQ(restored.checkpoint_interval_minutes, 173u);
}

TEST(ScenarioJson, EngineEventKindNamesAreStable) {
  // The JSON vocabulary is part of the scenario file format: event kinds
  // serialize as an array of names, defaults stay when the key is absent.
  EngineConfig config;
  config.event_kinds =
      EventKindMask{}.set(EventKind::kSession).set(EventKind::kPacket);
  const Json json = to_json(config);
  const JsonArray& kinds = json.at("event_kinds").as_array();
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0].as_string(), "session");
  EXPECT_EQ(kinds[1].as_string(), "packet");

  EngineConfig defaulted;
  from_json(Json::parse(R"({"num_workers": 2})"), defaulted);
  EXPECT_EQ(defaulted.event_kinds, EventKindMask::session_replay());

  EngineConfig rejected;
  EXPECT_THROW(
      from_json(Json::parse(R"({"event_kinds": ["sessions"]})"), rejected),
      ParseError);
}

TEST(ScenarioJson, EngineConfigRejectsBadInput) {
  EngineConfig config;
  EXPECT_THROW(from_json(Json::parse(R"({"backpressure": "explode"})"),
                         config),
               ParseError);
  EXPECT_THROW(from_json(Json::parse(R"({"num_wrkers": 2})"), config),
               ParseError);
}

// Every integer field goes through a range check: a negative, fractional
// or out-of-range number is a ParseError naming the field, never a silent
// wrap or truncation (casting such a double to an integer is undefined).
TEST(ScenarioJson, IntegerFieldsAreRangeChecked) {
  struct Field {
    const char* section;
    const char* key;
    bool is_uint8;
  };
  const Field fields[] = {
      {"NetworkConfig", "num_bs", false},
      {"TraceConfig", "num_days", false},
      {"TraceConfig", "seed", false},
      {"SlicingConfig", "num_antennas", false},
      {"SlicingConfig", "eval_days", false},
      {"SlicingConfig", "calibration_days", false},
      {"SlicingConfig", "antenna_decile", true},
      {"SlicingConfig", "seed", false},
      {"SlicingConfig", "fig12_antenna", false},
      {"VranConfig", "num_edge_sites", false},
      {"VranConfig", "rus_per_site", false},
      {"VranConfig", "num_days", false},
      {"VranConfig", "ru_decile", true},
      {"VranConfig", "seed", false},
      {"VranConfig", "series_start_minute", false},
      {"VranConfig", "series_seconds", false},
      {"MobilityConfig", "max_segments", false},
      {"PacketScheduleConfig", "mtu_bytes", false},
      {"PacketScheduleConfig", "max_packets", false},
      {"EngineConfig", "num_workers", false},
      {"EngineConfig", "queue_capacity", false},
      {"EngineConfig", "batch_size", false},
      {"EngineConfig", "stop_after_days", false},
      {"EngineConfig", "checkpoint_interval_minutes", false},
  };
  const auto load = [](const std::string& section, const Json& json) {
    if (section == "NetworkConfig") {
      NetworkConfig c;
      from_json(json, c);
    } else if (section == "TraceConfig") {
      TraceConfig c;
      from_json(json, c);
    } else if (section == "SlicingConfig") {
      SlicingConfig c;
      from_json(json, c);
    } else if (section == "VranConfig") {
      VranConfig c;
      from_json(json, c);
    } else if (section == "MobilityConfig") {
      MobilityConfig c;
      from_json(json, c);
    } else if (section == "PacketScheduleConfig") {
      PacketScheduleConfig c;
      from_json(json, c);
    } else {
      EngineConfig c;
      from_json(json, c);
    }
  };
  for (const Field& field : fields) {
    std::vector<std::string> values = {"-1", "0.5", "1e300"};
    if (field.is_uint8) values.emplace_back("256");
    for (const std::string& value : values) {
      const std::string name = std::string(field.section) + "." + field.key;
      SCOPED_TRACE(name + " = " + value);
      const Json json =
          Json::parse("{\"" + std::string(field.key) + "\": " + value + "}");
      try {
        load(field.section, json);
        ADD_FAILURE() << "accepted";
      } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
            << e.what();
      }
    }
  }
}

// The engine persists no checkpoint file and runs no write-retry loop of
// its own, so scenario files naming those retired options are rejected.
TEST(ScenarioJson, RetiredCheckpointFileKeysAreRejected) {
  for (const char* key : {"checkpoint_path", "checkpoint_max_attempts",
                          "checkpoint_backoff_ms"}) {
    SCOPED_TRACE(key);
    EngineConfig config;
    try {
      from_json(Json::parse("{\"" + std::string(key) + "\": 1}"), config);
      ADD_FAILURE() << "accepted";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioJson, EngineBackpressureNamesAreStable) {
  // The JSON vocabulary is part of the scenario file format.
  EngineConfig config;
  config.backpressure = BackpressurePolicy::kBlock;
  EXPECT_EQ(to_json(config).at("backpressure").as_string(), "block");
  config.backpressure = BackpressurePolicy::kDropNewest;
  EXPECT_EQ(to_json(config).at("backpressure").as_string(), "drop");
}

TEST(Scenario, FullRoundTripThroughFile) {
  Scenario scenario;
  scenario.network.num_bs = 55;
  scenario.trace.num_days = 4;
  scenario.slicing.num_antennas = 3;
  scenario.vran.packing = PackingPolicy::kBestFitDecreasing;
  scenario.engine.num_workers = 4;
  scenario.engine.backpressure = BackpressurePolicy::kDropNewest;

  const std::string path = ::testing::TempDir() + "/mtd_scenario_test.json";
  scenario.save(path);
  const Scenario loaded = Scenario::load(path);
  EXPECT_EQ(loaded.network.num_bs, 55u);
  EXPECT_EQ(loaded.trace.num_days, 4u);
  EXPECT_EQ(loaded.slicing.num_antennas, 3u);
  EXPECT_EQ(loaded.vran.packing, PackingPolicy::kBestFitDecreasing);
  EXPECT_EQ(loaded.engine.num_workers, 4u);
  EXPECT_EQ(loaded.engine.backpressure, BackpressurePolicy::kDropNewest);
  std::remove(path.c_str());
}

TEST(Scenario, EmptyJsonYieldsDefaults) {
  const Scenario scenario = Scenario::from_json(Json::parse("{}"));
  EXPECT_EQ(scenario.network.num_bs, NetworkConfig{}.num_bs);
  EXPECT_EQ(scenario.vran.num_edge_sites, VranConfig{}.num_edge_sites);
}

// Use-case sections are held to the rules run_slicing and run_vran apply,
// at load time: a scenario the use case would reject fails before any
// dataset is collected or model fitted, with the field in the message.
TEST(Scenario, UseCaseSectionsAreValidatedAtLoad) {
  struct Case {
    const char* json;
    const char* field;
  };
  const Case cases[] = {
      {R"({"slicing": {"num_antennas": 4, "fig12_antenna": 99}})",
       "fig12_antenna"},
      {R"({"slicing": {"sla_quantile": 1.5}})", "sla_quantile"},
      {R"({"slicing": {"eval_days": 0}})", "eval_days"},
      {R"({"vran": {"num_edge_sites": 0}})", "num_edge_sites"},
      {R"({"vran": {"num_days": 60000}})", "num_days"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.json);
    try {
      static_cast<void>(Scenario::from_json(Json::parse(c.json)));
      ADD_FAILURE() << "accepted";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("Scenario."), std::string::npos) << what;
      EXPECT_NE(what.find(c.field), std::string::npos) << what;
    }
  }
}

TEST(Scenario, UnknownTopLevelKeyRejected) {
  EXPECT_THROW(Scenario::from_json(Json::parse(R"({"netwrok": {}})")),
               ParseError);
}

}  // namespace
}  // namespace mtd
