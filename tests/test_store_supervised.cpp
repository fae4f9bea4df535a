// Supervised recovery × trace store composition: a crash at EVERY
// store.commit.* fault point — a retryable error, which
// Supervisor::run_into_store retries by reopening the store, or a foreign
// exception standing in for a process kill, after which a new supervised
// run starts — followed by a resume from the checkpoint the manifest
// itself carries must converge on a store bit-identical to one written by
// a run that never failed. This is the unit-test core of the mtd_chaos
// soak (DESIGN.md section 13): data, cursor and checkpoint publish in one
// atomic manifest replace, so no crash point can duplicate or drop events.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/fault.hpp"
#include "common/fnv.hpp"
#include "dataset/network.hpp"
#include "engine/store_runner.hpp"
#include "engine/supervisor.hpp"
#include "events/event_codec.hpp"
#include "store/trace_store.hpp"

namespace mtd {
namespace {

namespace fs = std::filesystem;

Network make_network(std::size_t n = 6) {
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

TraceConfig make_trace(std::size_t days = 2, std::uint64_t seed = 61) {
  TraceConfig trace;
  trace.num_days = days;
  trace.seed = seed;
  return trace;
}

/// FNV-1a over the wire encoding of every event, position- and
/// content-sensitive: equal digests mean bit-identical streams.
struct DigestSink final : EventSink {
  std::uint64_t hash = kFnvOffsetBasis;
  std::uint64_t count = 0;

  void on_event(const StreamEvent& event) override {
    char buf[kMaxEventPayloadBytes];
    const std::size_t len = encode_event_payload(event, buf);
    hash = fnv1a64(std::string_view(buf, len), hash);
    ++count;
  }
};

struct StoreFingerprint {
  std::uint64_t replay_hash = 0;
  std::uint64_t replay_count = 0;
  std::uint64_t verified_events = 0;
  std::vector<std::uint64_t> scan_hashes;

  friend bool operator==(const StoreFingerprint&,
                         const StoreFingerprint&) = default;
};

StoreFingerprint fingerprint_store(const std::string& path,
                                   std::size_t num_bs, std::uint16_t days) {
  store::TraceStore store(path);
  StoreFingerprint fp;
  DigestSink replay;
  fp.replay_count = store.replay(replay);
  fp.replay_hash = replay.hash;
  fp.verified_events = store.verify().events;
  for (std::uint32_t bs = 0; bs < num_bs; ++bs) {
    DigestSink scan;
    static_cast<void>(store.scan(
        bs, 0, static_cast<std::uint16_t>(days - 1),
        [&scan](const StreamEvent& event) { scan.on_event(event); }));
    fp.scan_hashes.push_back(scan.hash);
  }
  return fp;
}

EngineConfig make_engine_config(FaultInjector* fault) {
  EngineConfig config;
  config.num_workers = 2;
  config.checkpoint_interval_minutes = 173;  // does not divide 1440
  config.fault = fault;
  return config;
}

SupervisorConfig make_supervisor_config() {
  SupervisorConfig config;
  config.max_restarts = 5;
  config.backoff_initial_ms = 1.0;
  return config;
}

/// The loop an operator runs around a killed process: start it again until
/// the horizon is reached. Each pass is one supervised store run — the
/// Supervisor reopens the store on every attempt, resumes from the store's
/// own checkpoint and retries retryable faults itself; a foreign exception
/// (the stand-in for a hard process kill) ends the pass. Returns the
/// attempts used over all passes, or 0 when the horizon was never
/// completed.
std::size_t run_supervised_into_store(const std::string& path,
                                      const Network& network,
                                      const TraceConfig& trace,
                                      FaultInjector& fault,
                                      std::size_t max_passes) {
  store::TraceStoreWriter::create(path).close();
  std::size_t attempts = 0;
  for (std::size_t pass = 1; pass <= max_passes; ++pass) {
    Supervisor supervisor(network, trace, make_engine_config(&fault),
                          make_supervisor_config());
    const RunReport report = supervisor.run_into_store(path);
    attempts += report.attempts.size();
    if (report.succeeded && report.result.checkpoint.complete()) {
      return attempts;
    }
  }
  return 0;
}

TEST(StoreSupervised, KillAtEveryCommitPointResumesBitIdentical) {
  const Network network = make_network(6);
  const TraceConfig trace = make_trace(2);
  const fs::path dir =
      fs::temp_directory_path() / "mtd_test_store_supervised";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const std::string clean_path = (dir / "clean.store").string();
  {
    auto writer = store::TraceStoreWriter::create(clean_path);
    StreamEngine engine(network, trace, make_engine_config(nullptr));
    const EngineResult result = run_engine_into_store(engine, writer);
    ASSERT_TRUE(result.checkpoint.complete());
    writer.close();
  }
  const StoreFingerprint clean = fingerprint_store(
      clean_path, network.size(), static_cast<std::uint16_t>(trace.num_days));
  ASSERT_GT(clean.replay_count, 0u);

  const std::vector<std::string> points = {
      "store.commit.pages", "store.commit.sync", "store.commit.manifest"};
  const std::vector<FaultAction> actions = {FaultAction::kError,
                                            FaultAction::kThrow};
  std::size_t case_id = 0;
  for (const std::string& point : points) {
    for (const FaultAction action : actions) {
      SCOPED_TRACE(point + (action == FaultAction::kError ? " / error"
                                                          : " / kill"));
      const std::string path =
          (dir / ("chaos" + std::to_string(case_id++) + ".store")).string();
      FaultInjector fault;
      FaultSpec spec;
      spec.action = action;
      spec.after = 1;  // the second commit: a mid-day minute mark, so the
                       // resume starts strictly inside day 0
      fault.arm(point, spec);
      const std::size_t attempts =
          run_supervised_into_store(path, network, trace, fault, 4);
      ASSERT_GT(attempts, 0u) << "never completed";
      EXPECT_GT(attempts, 1u) << "the fault never fired";
      EXPECT_EQ(fault.fired(point), 1u);

      // Exact-resume parity: replay, per-BS scans and the verified event
      // count all match the store written without any failure.
      const StoreFingerprint recovered = fingerprint_store(
          path, network.size(), static_cast<std::uint16_t>(trace.num_days));
      EXPECT_EQ(recovered.replay_count, clean.replay_count)
          << "duplicated or dropped events across the crash";
      EXPECT_TRUE(recovered == clean);
    }
  }
  fs::remove_all(dir);
}

// One run_into_store call rides out retryable faults at every
// store.commit.* point, and one in the sink between two commits, on its
// own: the Supervisor's restart loop reopens the store after each, every
// attempt resumes exactly where the previous one's last commit stopped,
// and the store ends bit-identical to a run that never failed. The sink
// fault leaves events past the last checkpoint in the writer; only
// dropping that writer keeps them out of the store.
TEST(StoreSupervised, RunIntoStoreRecoversFromRetryableFaults) {
  const Network network = make_network(6);
  const TraceConfig trace = make_trace(2);
  const fs::path dir =
      fs::temp_directory_path() / "mtd_test_store_run_into_store";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const std::string clean_path = (dir / "clean.store").string();
  store::TraceStoreWriter::create(clean_path).close();
  const RunReport clean_report =
      Supervisor(network, trace, make_engine_config(nullptr))
          .run_into_store(clean_path);
  ASSERT_TRUE(clean_report.succeeded) << clean_report.to_json().dump(2);
  ASSERT_EQ(clean_report.attempts.size(), 1u);
  const StoreFingerprint clean = fingerprint_store(
      clean_path, network.size(), static_cast<std::uint16_t>(trace.num_days));
  ASSERT_GT(clean.replay_count, 0u);

  // Each point fails once, the commit points at different commits (hits
  // count across the attempts' writers), so the run restarts four times.
  FaultInjector fault;
  const std::vector<std::pair<std::string, std::uint64_t>> faults = {
      {"store.commit.pages", 1},
      {"store.commit.sync", 3},
      {"store.commit.manifest", 5},
      {"sink.session", 1000}};
  for (const auto& [point, after] : faults) {
    FaultSpec spec;
    spec.after = after;
    fault.arm(point, spec);
  }
  const std::string path = (dir / "chaos.store").string();
  store::TraceStoreWriter::create(path).close();
  Supervisor supervisor(network, trace, make_engine_config(&fault),
                        make_supervisor_config());
  const RunReport report = supervisor.run_into_store(path);

  ASSERT_TRUE(report.succeeded) << report.to_json().dump(2);
  EXPECT_TRUE(report.result.checkpoint.complete());
  EXPECT_GE(report.restarts(), 1u);
  for (const auto& [point, after] : faults) {
    EXPECT_EQ(fault.fired(point), 1u) << point;
  }
  for (std::size_t k = 0; k < report.attempts.size(); ++k) {
    const SupervisorAttempt& attempt = report.attempts[k];
    SCOPED_TRACE("attempt " + std::to_string(attempt.attempt));
    EXPECT_TRUE(attempt.telemetry.accounted_for());
    if (k + 1 < report.attempts.size()) {
      EXPECT_TRUE(attempt.retryable) << attempt.error;
      EXPECT_GT(attempt.backoff_ms, 0.0);
    }
    if (k > 0) {
      EXPECT_EQ(attempt.start_minute, report.attempts[k - 1].reached_minute);
    }
  }
  // The first fault hits the second commit, after a mid-day mark landed.
  EXPECT_GT(report.attempts[0].reached_minute, 0u);
  EXPECT_NE(report.attempts[1].start_minute % kMinutesPerDay, 0u);

  EXPECT_TRUE(fingerprint_store(path, network.size(),
                                static_cast<std::uint16_t>(trace.num_days)) ==
              clean);
  fs::remove_all(dir);
}

// A kill AFTER pages reached the file but before the manifest replace
// leaves an uncommitted tail; the reopen must reclaim it (the manifest's
// committed length is the source of truth) and the resumed run re-appends
// from the committed state — no duplicate pages, no torn segments.
TEST(StoreSupervised, UncommittedTailFromAKilledCommitIsReclaimed) {
  const Network network = make_network(6);
  const TraceConfig trace = make_trace(1);
  const fs::path dir =
      fs::temp_directory_path() / "mtd_test_store_tail";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "tail.store").string();

  FaultInjector fault;
  FaultSpec kill;
  kill.action = FaultAction::kThrow;
  kill.after = 2;  // third commit: two sealed segments already durable
  fault.arm("store.commit.manifest", kill);
  const std::size_t attempts =
      run_supervised_into_store(path, network, trace, fault, 4);
  ASSERT_GT(attempts, 1u);

  // The pages file was longer than the committed length right after the
  // kill; after recovery the store verifies clean end to end and the
  // manifest vouches for every byte the file holds.
  store::TraceStore store(path);
  const store::StoreVerifyReport report = store.verify();
  EXPECT_EQ(report.events, store.manifest().events);
  EXPECT_EQ(fs::file_size(path + ".pages"),
            store.manifest().committed_bytes());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mtd
