// Supervised recovery × trace store composition: a crash at EVERY
// store.commit.* fault point — a retryable error or a foreign exception
// standing in for a process kill — followed by a writer reopen and a
// resume from the checkpoint the manifest itself carries must converge on
// a store bit-identical to one written by a run that never failed. This is
// the unit-test core of the mtd_chaos soak (DESIGN.md section 13): data,
// cursor and checkpoint publish in one atomic manifest replace, so no
// crash point can duplicate or drop events.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.hpp"
#include "dataset/network.hpp"
#include "engine/store_runner.hpp"
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
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  std::uint64_t count = 0;

  void on_event(const StreamEvent& event) override {
    char buf[kMaxEventPayloadBytes];
    const std::size_t len = encode_event_payload(event, buf);
    for (std::size_t i = 0; i < len; ++i) {
      hash ^= static_cast<unsigned char>(buf[i]);
      hash *= 0x100000001b3ULL;
    }
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

/// The crash-recovery loop an operator (or the Supervisor-backed chaos
/// driver) runs: reopen the store and run into it again — the store's own
/// checkpoint is the resume point — until the horizon is reached. Returns
/// the number of attempts used, or 0 when the horizon was never completed.
std::size_t run_supervised_into_store(const std::string& path,
                                      const Network& network,
                                      const TraceConfig& trace,
                                      FaultInjector& fault,
                                      std::size_t max_attempts) {
  store::TraceStoreWriter::create(path).close();
  for (std::size_t attempt = 1; attempt <= max_attempts; ++attempt) {
    auto writer = store::TraceStoreWriter::append(path, &fault);
    StreamEngine engine(network, trace, make_engine_config(&fault));
    try {
      const EngineResult result = run_engine_into_store(engine, writer);
      writer.close();
      if (result.checkpoint.complete()) return attempt;
    } catch (const Error&) {
      // Injected retryable failure: the writer is dropped mid-flight, like
      // a crash; the next attempt reopens and resumes.
    } catch (const std::exception&) {
      // Foreign exception: the stand-in for a hard process kill.
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
