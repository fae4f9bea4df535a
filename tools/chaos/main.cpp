// mtd_chaos: long-horizon chaos-soak endurance driver (DESIGN.md §13).
//
// Proves the whole recovery stack — minute-granularity v2 checkpoints,
// supervised restarts, the trace store's crash-safe commit protocol, and
// exactly-once commits at checkpoint cuts — by running the paper's 45-day
// replay twice with the same seed:
//
//   1. a clean, fault-free run into a reference store (also counting how
//      often every compiled-in fault point is reached), then
//   2. a chaos run into a second store, where every registered fault point
//      is armed from a seeded schedule, whole "process incarnations" are
//      killed with foreign exceptions mid-run, the store is tampered with
//      between incarnations (garbage appended to / torn off the page
//      file's uncommitted tail — never the committed prefix — and half a
//      record, valid header and garbage payload, appended to the manifest
//      log), and segment
//      compaction runs between incarnations with store.compact.* faults
//      armed (plus one guaranteed fault-free pass at the end, so the final
//      comparison always covers a compacted store).
//
// Each incarnation is one supervised store run (Supervisor::run_into_store
// with --max-restarts as its budget): the Supervisor's restart loop retries
// the retryable faults, reopening the store on every attempt, and the
// simulated kill ends the incarnation. The run passes only if the chaos
// store ends bit-identical to the clean one: same final checkpoint
// counters, same replay digest, same per-BS scan digests, and both stores
// verify page-by-page. Every attempt's final telemetry must satisfy the
// per-kind conservation identity
// produced == consumed + dropped + sink_errors + discarded.
//
// Usage: mtd_chaos [--days N] [--bs N] [--workers N] [--seed S]
//                  [--interval MIN] [--faults all|none] [--fault-seed S]
//                  [--incarnations K] [--max-restarts R] [--rate-scale X]
//                  [--kinds replay|segments|all] [--dir PATH] [--keep]
//                  [--json] [--list-fault-points]
// Env: MTD_SOAK_FAST=1 shrinks the horizon to a CI-sized smoke (~2 days).
// Exit codes: 0 identical, 1 divergence/failure, 2 usage error.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "engine/checkpoint.hpp"
#include "engine/engine.hpp"
#include "engine/store_runner.hpp"
#include "engine/supervisor.hpp"
#include "events/event_codec.hpp"
#include "io/json.hpp"
#include "store/trace_store.hpp"

namespace {

namespace fs = std::filesystem;
using mtd::EngineCheckpoint;
using mtd::EngineConfig;
using mtd::EventKindMask;
using mtd::FaultAction;
using mtd::FaultInjector;
using mtd::FaultSpec;
using mtd::Json;
using mtd::JsonArray;
using mtd::JsonObject;
using mtd::Network;
using mtd::Rng;
using mtd::RunReport;
using mtd::StreamEngine;
using mtd::StreamEvent;
using mtd::TraceConfig;

struct Options {
  std::size_t days = 45;
  std::size_t num_bs = 10;
  std::size_t workers = 3;
  std::uint64_t seed = 42;
  /// Mid-day checkpoint interval; deliberately does not divide 1440, so
  /// marks land at a different minute-of-day every day.
  std::size_t interval_minutes = 173;
  bool faults = true;
  std::uint64_t fault_seed = 0x63686173ULL;  // "chas"
  std::size_t incarnations = 8;
  std::size_t max_restarts = 14;
  /// Default well below 1.0: the soak's subject is the recovery protocol,
  /// not raw throughput, and 45 days at full paper rates is a multi-GB
  /// store. --rate-scale 1.0 restores full load.
  double rate_scale = 0.2;
  std::string kinds = "segments";
  std::string dir;
  bool keep = false;
  bool json = false;
  bool list_points = false;
};

void print_usage() {
  std::fputs(
      "usage: mtd_chaos [--days N] [--bs N] [--workers N] [--seed S]\n"
      "                 [--interval MIN] [--faults all|none]\n"
      "                 [--fault-seed S] [--incarnations K]\n"
      "                 [--max-restarts R] [--rate-scale X]\n"
      "                 [--kinds replay|segments|all] [--dir PATH]\n"
      "                 [--keep] [--json] [--list-fault-points]\n"
      "\n"
      "Chaos-soak endurance driver: replays the same seeded trace clean\n"
      "and under exhaustive fault injection + simulated process kills +\n"
      "store tampering, and requires the two stores to end bit-identical.\n"
      "MTD_SOAK_FAST=1 shrinks the horizon for CI smoke runs.\n",
      stderr);
}

std::uint64_t parse_u64(std::string_view arg, const char* what) {
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(arg.data(), arg.data() + arg.size(), v);
  if (ec != std::errc{} || ptr != arg.data() + arg.size()) {
    throw mtd::InvalidArgument("mtd_chaos: bad " + std::string(what) + " '" +
                               std::string(arg) + "'");
  }
  return v;
}

double parse_double(std::string_view arg, const char* what) {
  const std::string s(arg);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) {
    throw mtd::InvalidArgument("mtd_chaos: bad " + std::string(what) + " '" +
                               s + "'");
  }
  return v;
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string_view {
      if (i + 1 >= argc) {
        throw mtd::InvalidArgument("mtd_chaos: " + std::string(arg) +
                                   " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--days") {
      opt.days = parse_u64(value(), "--days");
    } else if (arg == "--bs") {
      opt.num_bs = parse_u64(value(), "--bs");
    } else if (arg == "--workers") {
      opt.workers = parse_u64(value(), "--workers");
    } else if (arg == "--seed") {
      opt.seed = parse_u64(value(), "--seed");
    } else if (arg == "--interval") {
      opt.interval_minutes = parse_u64(value(), "--interval");
    } else if (arg == "--faults") {
      const std::string_view v = value();
      if (v == "all") {
        opt.faults = true;
      } else if (v == "none") {
        opt.faults = false;
      } else {
        throw mtd::InvalidArgument("mtd_chaos: --faults must be all|none");
      }
    } else if (arg == "--fault-seed") {
      opt.fault_seed = parse_u64(value(), "--fault-seed");
    } else if (arg == "--incarnations") {
      opt.incarnations = parse_u64(value(), "--incarnations");
    } else if (arg == "--max-restarts") {
      opt.max_restarts = parse_u64(value(), "--max-restarts");
    } else if (arg == "--rate-scale") {
      opt.rate_scale = parse_double(value(), "--rate-scale");
    } else if (arg == "--kinds") {
      const std::string_view v = value();
      if (v != "replay" && v != "segments" && v != "all") {
        throw mtd::InvalidArgument(
            "mtd_chaos: --kinds must be replay|segments|all");
      }
      opt.kinds = std::string(v);
    } else if (arg == "--dir") {
      opt.dir = std::string(value());
    } else if (arg == "--keep") {
      opt.keep = true;
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--list-fault-points") {
      opt.list_points = true;
    } else if (arg == "--help" || arg == "-h") {
      print_usage();
      std::exit(0);
    } else {
      throw mtd::InvalidArgument("mtd_chaos: unknown flag '" +
                                 std::string(arg) + "'");
    }
  }
  // CI smoke profile: same machinery, minutes-not-hours horizon. Packet
  // expansion stays off — a single session can expand into millions of
  // packet events (PacketScheduleConfig::max_packets), which is throughput
  // territory, not a recovery-protocol test.
  if (const char* fast = std::getenv("MTD_SOAK_FAST");
      fast != nullptr && fast[0] != '\0' && fast != std::string_view("0")) {
    opt.days = std::min<std::size_t>(opt.days, 2);
    opt.num_bs = std::min<std::size_t>(opt.num_bs, 6);
    opt.incarnations = std::min<std::size_t>(opt.incarnations, 3);
    opt.rate_scale = std::min(opt.rate_scale, 0.25);
  }
  return opt;
}

Network make_network(std::size_t n) {
  if (n >= mtd::kNumDeciles) {
    mtd::NetworkConfig config;
    config.num_bs = n;
    config.last_decile_rate = 25.0;
    Rng rng(9);
    return Network::build(config, rng);
  }
  std::vector<mtd::BaseStation> bss(n);
  for (std::size_t i = 0; i < n; ++i) {
    bss[i].decile = static_cast<std::uint8_t>((i * mtd::kNumDeciles) / n);
    bss[i].peak_rate = 5.0 + 3.0 * static_cast<double>(i);
    bss[i].offpeak_scale = 0.25;
  }
  return Network::from_base_stations(std::move(bss));
}

EventKindMask kinds_mask(const std::string& kinds) {
  if (kinds == "replay") return EventKindMask::session_replay();
  if (kinds == "all") return EventKindMask::all();
  return EventKindMask::session_replay().set(mtd::EventKind::kSegment);
}

/// Order-sensitive FNV-1a over the canonical binary encoding of every
/// event it sees (the codec covers kind, key, and payload), so two stores
/// digest equal iff their replayed streams are bit-identical.
class DigestSink final : public mtd::EventSink {
 public:
  void on_event(const StreamEvent& event) override {
    char buf[mtd::kMaxEventPayloadBytes];
    const std::size_t len = mtd::encode_event_payload(event, buf);
    hash_ = mtd::fnv1a64(std::string_view(buf, len), hash_);
    ++count_;
  }
  [[nodiscard]] std::uint64_t hash() const noexcept { return hash_; }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

 private:
  std::uint64_t hash_ = mtd::kFnvOffsetBasis;
  std::uint64_t count_ = 0;
};

/// Everything we compare between the clean and the chaos store.
struct RunFingerprint {
  EngineCheckpoint checkpoint;
  std::uint64_t replay_hash = 0;
  std::uint64_t replay_count = 0;
  std::vector<std::uint64_t> scan_hashes;  // one per BS
  std::uint64_t verified_pages = 0;
};

RunFingerprint fingerprint_store(const std::string& path, std::size_t num_bs,
                                 std::size_t days,
                                 const EngineCheckpoint& final_checkpoint) {
  RunFingerprint fp;
  fp.checkpoint = final_checkpoint;
  mtd::store::TraceStore reader(path);
  DigestSink digest;
  fp.replay_count = reader.replay(digest);
  fp.replay_hash = digest.hash();
  const auto day_hi = static_cast<std::uint16_t>(days == 0 ? 0 : days - 1);
  for (std::size_t bs = 0; bs < num_bs; ++bs) {
    DigestSink per_bs;
    // The delivered count is redundant here: the sink folds every event
    // into the hash, so the count is already part of the fingerprint.
    static_cast<void>(
        reader.scan(static_cast<std::uint32_t>(bs), 0, day_hi,
                    [&per_bs](const StreamEvent& ev) { per_bs.on_event(ev); }));
    fp.scan_hashes.push_back(per_bs.hash());
  }
  fp.verified_pages = reader.verify().pages;
  return fp;
}

struct ChaosOutcome {
  bool completed = false;
  bool conservation_ok = true;
  /// One supervised store run per incarnation, with its attempt log.
  std::vector<RunReport> incarnations;
  std::size_t kills = 0;
  std::size_t tampers = 0;
  /// Torn records the tamper step appended to the manifest log.
  std::size_t manifest_tears = 0;
  /// Compaction leg: maintenance passes over the chaos store between
  /// incarnations (plus the final fault-free pass), and how many of them
  /// the armed store.compact.* faults killed mid-publish.
  std::size_t compaction_passes = 0;
  std::size_t compaction_crashes = 0;
  std::map<std::string, std::uint64_t> fired;
};

EngineConfig make_engine_config(const Options& opt, FaultInjector* fault) {
  EngineConfig config;
  config.num_workers = opt.workers;
  config.event_kinds = kinds_mask(opt.kinds);
  config.checkpoint_interval_minutes = opt.interval_minutes;
  config.queue_capacity = 256;
  config.batch_size = 32;
  config.fault = fault;
  return config;
}

TraceConfig make_trace(const Options& opt) {
  TraceConfig trace;
  trace.num_days = opt.days;
  trace.seed = opt.seed;
  trace.rate_scale = opt.rate_scale;
  return trace;
}

/// Half of a manifest record of `len` garbage payload bytes, its header
/// valid, as an append cut short by a crash leaves it: the cut falls
/// inside the header or inside the payload.
std::string torn_manifest_record(Rng& rng) {
  std::string payload(1 + static_cast<std::size_t>(rng.uniform_index(4096)),
                      '\0');
  for (char& c : payload) c = static_cast<char>(rng.next_u64() & 0xff);
  std::string record = mtd::store::encode_manifest_record(payload);
  record.resize(record.size() / 2);
  return record;
}

/// Seeded tampering with the chaos store between incarnations: appends
/// garbage past the committed length, or tears bytes off the uncommitted
/// tail, and appends half a record to the manifest log. The committed
/// prefix of either file is never touched — the point is to prove the
/// writer reclaims anything the manifest does not vouch for. Returns
/// whether the manifest log was torn.
bool tamper_store(const std::string& store_path, Rng& rng) {
  const mtd::store::StoreManifest manifest =
      mtd::store::StoreManifest::load(store_path);
  const std::string pages = store_path + ".pages";
  const std::uint64_t committed = manifest.committed_bytes();
  std::error_code ec;
  const std::uint64_t size = fs::file_size(pages, ec);
  if (ec || size < committed) return false;  // the reader will report it
  if (rng.bernoulli(0.5)) {
    // Garbage append: a torn post-crash write beyond the committed length.
    const std::size_t len = 1 + static_cast<std::size_t>(
                                    rng.uniform_index(2 * 4096));
    std::string junk(len, '\0');
    for (char& c : junk) c = static_cast<char>(rng.next_u64() & 0xff);
    std::ofstream out(pages, std::ios::binary | std::ios::app);
    out.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  } else if (size > committed) {
    // Tear: truncate somewhere inside the uncommitted tail.
    const std::uint64_t keep =
        committed + rng.uniform_index(size - committed + 1);
    fs::resize_file(pages, keep, ec);
  }
  const std::string torn = torn_manifest_record(rng);
  std::ofstream log(store_path, std::ios::binary | std::ios::app);
  log.write(torn.data(), static_cast<std::streamsize>(torn.size()));
  return static_cast<bool>(log);
}

/// One "process incarnation": one supervised store run. The Supervisor
/// reopens the store on every attempt, exactly as a freshly exec'd process
/// would, resumes from the store's own checkpoint and retries retryable
/// faults; a foreign exception (the simulated kill) ends the incarnation.
RunReport run_incarnation(const Options& opt, const Network& network,
                          const TraceConfig& trace,
                          const std::string& store_path,
                          FaultInjector* injector) {
  mtd::SupervisorConfig config;
  config.max_restarts = opt.max_restarts;
  // The soak tests the restart protocol, not the wait: a 10 us base keeps
  // a 14-restart incarnation from sleeping for minutes, while every
  // restart still records a positive, seeded backoff.
  config.backoff_initial_ms = 0.01;
  mtd::Supervisor supervisor(network, trace,
                             make_engine_config(opt, injector), config);
  return supervisor.run_into_store(store_path);
}

int run_soak(const Options& opt) {
  const fs::path dir = opt.dir.empty()
                           ? fs::temp_directory_path() /
                                 ("mtd-chaos-" + std::to_string(opt.seed))
                           : fs::path(opt.dir);
  fs::create_directories(dir);
  const std::string clean_path = (dir / "clean.store").string();
  const std::string chaos_path = (dir / "chaos.store").string();

  const Network network = make_network(opt.num_bs);
  const TraceConfig trace = make_trace(opt);

  // ---- Phase 1: clean reference run. The injector only counts hits
  // (after = kUnlimited never becomes eligible), giving the per-point hit
  // universe the chaos schedule draws fault positions from.
  FaultInjector counting(opt.fault_seed);
  for (const std::string& point : FaultInjector::known_points()) {
    counting.arm(point, FaultSpec{FaultAction::kStall, 1.0,
                                  FaultSpec::kUnlimited, 1, 0.0});
  }
  EngineCheckpoint clean_final;
  {
    auto writer = mtd::store::TraceStoreWriter::create(clean_path, {},
                                                       &counting);
    StreamEngine engine(network, trace,
                        make_engine_config(opt, &counting));
    const mtd::EngineResult result = run_engine_into_store(engine, writer);
    writer.close();
    if (!result.telemetry.accounted_for()) {
      std::fprintf(stderr,
                   "mtd_chaos: clean run violates the conservation "
                   "identity\n");
      return 1;
    }
    clean_final = result.checkpoint;
  }
  const RunFingerprint clean = fingerprint_store(
      clean_path, network.size(), opt.days, clean_final);

  // ---- Phase 2: chaos run against a second store with the same seed.
  ChaosOutcome outcome;
  Rng schedule(opt.fault_seed);
  FaultInjector injector(opt.fault_seed ^ 0x6e6f6973ULL /* "nois" */);
  const std::vector<std::string>& points = FaultInjector::known_points();
  std::vector<std::string> reachable;
  for (const std::string& point : points) {
    if (counting.hits(point) > 0) reachable.push_back(point);
  }

  // Seeds the chaos store (fresh, no faults armed yet — creation is not
  // part of the protocol under test).
  mtd::store::TraceStoreWriter::create(chaos_path, {}, nullptr).close();

  const auto arm_error_faults = [&] {
    if (!opt.faults) return;
    for (const std::string& point : reachable) {
      const std::uint64_t universe = counting.hits(point);
      injector.arm(point,
                   FaultSpec{FaultAction::kError, 1.0,
                             schedule.uniform_index(universe), 1, 0.0});
    }
  };

  // Compaction leg: between incarnations the background maintenance path
  // runs against the chaos store with every store.compact.* point armed at
  // a coin-flip — roughly half the passes die mid-publish (pages, sync or
  // manifest), which must leave the previous multi-segment manifest fully
  // live for the next incarnation; the passes that land must be invisible
  // in the replayed stream. The clean reference store is never compacted,
  // so the final fingerprint comparison proves both.
  const auto compaction_leg = [&](bool with_faults) {
    if (with_faults && opt.faults) {
      for (const char* point : {"store.compact.pages", "store.compact.sync",
                                "store.compact.manifest"}) {
        injector.arm(point, FaultSpec{FaultAction::kError, 0.5, 0, 1, 0.0});
      }
    }
    ++outcome.compaction_passes;
    try {
      auto writer = mtd::store::TraceStoreWriter::append(
          chaos_path, with_faults && opt.faults ? &injector : nullptr);
      static_cast<void>(writer.compact());
      writer.close();
    } catch (const std::exception&) {
      // Died mid-compact: nothing published; the store must still open.
      ++outcome.compaction_crashes;
    }
  };

  bool completed = false;
  const auto run_next_incarnation = [&] {
    RunReport report = run_incarnation(opt, network, trace, chaos_path,
                                       opt.faults ? &injector : nullptr);
    // The engine delivers a final telemetry snapshot on failure paths too;
    // the conservation identity must hold even for aborted attempts.
    for (const mtd::SupervisorAttempt& attempt : report.attempts) {
      if (attempt.telemetry.accounted_for()) continue;
      outcome.conservation_ok = false;
      std::fprintf(stderr,
                   "mtd_chaos: conservation violated (incarnation %zu "
                   "attempt %zu, %s):\n%s\n",
                   outcome.incarnations.size() + 1, attempt.attempt,
                   attempt.error.c_str(),
                   attempt.telemetry.to_json().dump(2).c_str());
    }
    completed = report.succeeded && report.result.checkpoint.complete();
    outcome.incarnations.push_back(std::move(report));
    for (const std::string& point : points) {
      outcome.fired[point] += injector.fired(point);
    }
  };
  for (std::size_t inc = 1; !completed && inc <= opt.incarnations; ++inc) {
    arm_error_faults();
    if (opt.faults && !reachable.empty()) {
      // One point per incarnation upgrades to a foreign exception — the
      // simulated hard kill supervision must not retry.
      const std::string& kill =
          reachable[schedule.uniform_index(reachable.size())];
      injector.arm(kill,
                   FaultSpec{FaultAction::kThrow, 1.0,
                             schedule.uniform_index(counting.hits(kill)), 1,
                             0.0});
      ++outcome.kills;
    }
    run_next_incarnation();
    if (!completed) {
      outcome.manifest_tears += tamper_store(chaos_path, schedule) ? 1 : 0;
      ++outcome.tampers;
      compaction_leg(/*with_faults=*/true);
    }
  }
  if (!completed) {
    // Final incarnation: retryable faults only; the run must finish now.
    arm_error_faults();
    run_next_incarnation();
  }
  outcome.completed = completed;
  if (completed) {
    // One guaranteed fault-free pass: the fingerprint below always covers
    // a compacted chaos store against the never-compacted clean one.
    compaction_leg(/*with_faults=*/false);
  }

  // ---- Compare. Shard counters are per-attempt and legitimately differ
  // after restarts; everything cumulative must match bit-exactly.
  bool ok = completed && outcome.conservation_ok;
  std::vector<std::string> mismatches;
  if (!completed) mismatches.emplace_back("chaos run did not complete");
  if (!outcome.conservation_ok) {
    mismatches.emplace_back("conservation identity violated");
  }
  if (completed) {
    const RunFingerprint chaos =
        fingerprint_store(chaos_path, network.size(), opt.days,
                          outcome.incarnations.back().result.checkpoint);
    const auto check = [&](bool same, const char* what) {
      if (!same) {
        ok = false;
        mismatches.emplace_back(what);
      }
    };
    const EngineCheckpoint& a = clean.checkpoint;
    const EngineCheckpoint& b = chaos.checkpoint;
    check(a.clock_minute == b.clock_minute, "final cursor differs");
    check(a.sessions_emitted == b.sessions_emitted &&
              a.minutes_emitted == b.minutes_emitted &&
              a.segments_emitted == b.segments_emitted &&
              a.packets_emitted == b.packets_emitted,
          "emitted counters differ");
    check(a.volume_mb == b.volume_mb, "committed volume differs");
    check(a.network_fingerprint == b.network_fingerprint &&
              a.seed == b.seed,
          "replay identity differs");
    check(clean.replay_count == chaos.replay_count,
          "store event count differs");
    check(clean.replay_hash == chaos.replay_hash,
          "store replay digest differs");
    check(clean.scan_hashes == chaos.scan_hashes,
          "per-BS scan digests differ");
  }

  // ---- Report.
  std::uint64_t total_fired = 0;
  for (const auto& [point, fired] : outcome.fired) total_fired += fired;
  std::size_t total_attempts = 0;
  for (const RunReport& report : outcome.incarnations) {
    total_attempts += report.attempts.size();
  }
  if (opt.json) {
    JsonObject report;
    report.emplace("ok", ok);
    report.emplace("completed", outcome.completed);
    report.emplace("conservation_ok", outcome.conservation_ok);
    report.emplace("days", opt.days);
    report.emplace("num_bs", opt.num_bs);
    report.emplace("seed", static_cast<double>(opt.seed));
    report.emplace("interval_minutes", opt.interval_minutes);
    report.emplace("incarnations", outcome.incarnations.size());
    report.emplace("kills", outcome.kills);
    report.emplace("tampers", outcome.tampers);
    report.emplace("manifest_tears", outcome.manifest_tears);
    report.emplace("compaction_passes", outcome.compaction_passes);
    report.emplace("compaction_crashes", outcome.compaction_crashes);
    report.emplace("attempts", total_attempts);
    report.emplace("faults_fired", static_cast<double>(total_fired));
    JsonObject fired_obj;
    for (const auto& [point, fired] : outcome.fired) {
      fired_obj.emplace(point, static_cast<double>(fired));
    }
    report.emplace("fired_by_point", Json(std::move(fired_obj)));
    JsonArray incarnation_arr;
    for (const RunReport& r : outcome.incarnations) {
      incarnation_arr.emplace_back(r.to_json());
    }
    report.emplace("incarnation_log", Json(std::move(incarnation_arr)));
    JsonArray mismatch_arr;
    for (const std::string& m : mismatches) mismatch_arr.emplace_back(m);
    report.emplace("mismatches", Json(std::move(mismatch_arr)));
    std::printf("%s\n", Json(std::move(report)).dump(2).c_str());
  } else {
    std::printf("mtd_chaos: %zu simulated days, %zu BS, seed %llu\n",
                opt.days, opt.num_bs,
                static_cast<unsigned long long>(opt.seed));
    std::printf("  incarnations: %zu (%zu kills, %zu store tampers, %zu "
                "manifest tears)\n",
                outcome.incarnations.size(), outcome.kills,
                outcome.tampers, outcome.manifest_tears);
    std::printf("  compactions:  %zu pass(es), %zu killed mid-publish\n",
                outcome.compaction_passes, outcome.compaction_crashes);
    std::printf("  attempts:     %zu, faults fired: %llu\n",
                total_attempts, static_cast<unsigned long long>(total_fired));
    std::printf("  clean store:  %llu events, replay digest %016llx\n",
                static_cast<unsigned long long>(clean.replay_count),
                static_cast<unsigned long long>(clean.replay_hash));
    if (ok) {
      std::printf("  chaos store:  bit-identical to the clean run\n");
    } else {
      for (const std::string& m : mismatches) {
        std::printf("  FAILED: %s\n", m.c_str());
      }
    }
  }

  if (!opt.keep) {
    std::error_code ec;
    fs::remove_all(dir, ec);
  } else {
    std::fprintf(stderr, "mtd_chaos: artifacts kept in %s\n",
                 dir.string().c_str());
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_options(argc, argv);
  } catch (const mtd::Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    print_usage();
    return 2;
  }
  if (opt.list_points) {
    for (const std::string& point : FaultInjector::known_points()) {
      std::printf("%s\n", point.c_str());
    }
    return 0;
  }
  try {
    return run_soak(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mtd_chaos: %s\n", e.what());
    return 2;
  }
}
