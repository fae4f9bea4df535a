// Parity guarantees of the two generator kernels (EngineConfig::kernel).
//
// The scalar-parity guard rail of the SoA batch path:
//
//   * Seed matrix: workers {1, 2, 4} x batch sizes {1, 64, 256} x both
//     kernels. Within a kernel, every configuration must produce the
//     bit-identical per-BS event stream — worker count and batch size are
//     transport knobs, never sampling knobs.
//   * NDJSON byte identity: at one worker the serialized output file is
//     byte-for-byte identical across batch sizes, for both kernels.
//   * kBatch mid-day checkpoint/resume: the v2 minute-mark checkpoint
//     round-trips the batch kernel exactly like the scalar one (the resume
//     replays the day's prefix under whichever kernel runs it).
//   * Statistical closeness: the two kernels draw different streams by
//     design (BlockRng v1 vs the scalar draw chain) but model the same
//     process — session counts, volumes, durations and service shares
//     must agree within sampling noise.
//
// The scalar stream's bit-exactness against its pre-batch self is pinned
// separately by the golden digests in test_serialization_golden.cpp and
// test_generator.cpp; this file is about the two kernels against each
// other and against their own invariants.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fnv.hpp"
#include "common/time_utils.hpp"
#include "dataset/generator.hpp"
#include "dataset/network.hpp"
#include "dataset/service_catalog.hpp"
#include "engine/checkpoint.hpp"
#include "engine/engine.hpp"
#include "events/event_sink.hpp"
#include "io/json.hpp"
#include "test_helpers.hpp"

namespace mtd {
namespace {

using test::PerBsRecorder;

Network parity_network(std::size_t n = 10) {
  NetworkConfig config;
  config.num_bs = n;
  config.last_decile_rate = 25.0;
  Rng rng(31);
  return Network::build(config, rng);
}

TraceConfig parity_trace(std::size_t days = 2, std::uint64_t seed = 4242) {
  TraceConfig trace;
  trace.num_days = days;
  trace.seed = seed;
  return trace;
}

/// Per-BS FNV-1a digest over the full session event sequence (order
/// included): two runs agree iff their per-BS streams are bit-identical.
struct DigestSink final : EventSink {
  std::vector<std::uint64_t> per_bs;
  std::uint64_t sessions = 0;
  std::uint64_t minutes = 0;
  double volume_mb = 0.0;

  explicit DigestSink(std::size_t num_bs)
      : per_bs(num_bs, kFnvOffsetBasis) {}

  void on_event(const StreamEvent& event) override {
    if (event.kind() == EventKind::kMinute) {
      ++minutes;
      return;
    }
    if (event.kind() != EventKind::kSession) return;
    const Session& s = std::get<SessionEvent>(event.payload).session;
    std::uint64_t& h = per_bs[s.bs];
    h = fnv1a64_word(h, (static_cast<std::uint64_t>(s.day) << 32) |
                   (static_cast<std::uint64_t>(s.minute_of_day) << 16) |
                   s.service);
    h = fnv1a64_word(h, std::bit_cast<std::uint64_t>(s.volume_mb));
    h = fnv1a64_word(h, std::bit_cast<std::uint64_t>(s.duration_s));
    h = fnv1a64_word(h, s.transient ? 1u : 0u);
    ++sessions;
    volume_mb += s.volume_mb;
  }
};

struct MatrixResult {
  std::vector<std::uint64_t> per_bs;
  std::uint64_t sessions = 0;
  std::uint64_t minutes = 0;
};

MatrixResult run_config(const Network& network, const TraceConfig& trace,
                        GeneratorKernel kernel, std::size_t workers,
                        std::size_t batch) {
  EngineConfig config;
  config.kernel = kernel;
  config.num_workers = workers;
  config.batch_size = batch;
  config.backpressure = BackpressurePolicy::kBlock;
  StreamEngine engine(network, trace, config);
  DigestSink sink(network.size());
  const EngineResult result = engine.run(sink);
  EXPECT_TRUE(result.telemetry.accounted_for());
  MatrixResult out;
  out.per_bs = sink.per_bs;
  out.sessions = sink.sessions;
  out.minutes = sink.minutes;
  return out;
}

// The seed matrix: within each kernel, every (workers, batch) cell must be
// bit-identical to the 1-worker/batch-1 reference of that kernel.
TEST(KernelParity, SeedMatrixIsWorkerAndBatchInvariant) {
  const Network network = parity_network();
  const TraceConfig trace = parity_trace();

  for (const GeneratorKernel kernel :
       {GeneratorKernel::kScalar, GeneratorKernel::kBatch}) {
    const MatrixResult reference =
        run_config(network, trace, kernel, 1, 1);
    ASSERT_GT(reference.sessions, 0u) << to_string(kernel);

    for (const std::size_t workers : {1u, 2u, 4u}) {
      for (const std::size_t batch : {1u, 64u, 256u}) {
        if (workers == 1 && batch == 1) continue;
        const MatrixResult got =
            run_config(network, trace, kernel, workers, batch);
        EXPECT_EQ(got.sessions, reference.sessions)
            << to_string(kernel) << " w=" << workers << " b=" << batch;
        EXPECT_EQ(got.minutes, reference.minutes)
            << to_string(kernel) << " w=" << workers << " b=" << batch;
        EXPECT_EQ(got.per_bs, reference.per_bs)
            << to_string(kernel) << " w=" << workers << " b=" << batch;
      }
    }
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// At one worker the consumer sees a fully deterministic event order, so
// the serialized NDJSON must be byte-identical across batch sizes — for
// both kernels (the two kernels themselves produce different files).
TEST(KernelParity, NdjsonIsByteIdenticalAcrossBatchSizes) {
  const Network network = parity_network();
  const TraceConfig trace = parity_trace(1);

  for (const GeneratorKernel kernel :
       {GeneratorKernel::kScalar, GeneratorKernel::kBatch}) {
    std::vector<std::string> outputs;
    for (const std::size_t batch : {1u, 256u}) {
      const std::string path = std::string("/tmp/mtd_parity_") +
                               to_string(kernel) + "_" +
                               std::to_string(batch) + ".ndjson";
      EngineConfig config;
      config.kernel = kernel;
      config.num_workers = 1;
      config.batch_size = batch;
      StreamEngine engine(network, trace, config);
      NdjsonEventWriter writer(path);
      const EngineResult result = engine.run(writer);
      writer.close();
      EXPECT_TRUE(result.checkpoint.complete());
      outputs.push_back(slurp(path));
      std::remove(path.c_str());
    }
    ASSERT_FALSE(outputs[0].empty());
    EXPECT_EQ(outputs[0], outputs[1]) << to_string(kernel);
  }
}

void expect_identical(const PerBsRecorder& a, const PerBsRecorder& b) {
  ASSERT_EQ(a.per_bs.size(), b.per_bs.size());
  for (std::size_t bs = 0; bs < a.per_bs.size(); ++bs) {
    ASSERT_EQ(a.per_bs[bs].size(), b.per_bs[bs].size()) << "bs " << bs;
    for (std::size_t i = 0; i < a.per_bs[bs].size(); ++i) {
      const Session& x = a.per_bs[bs][i];
      const Session& y = b.per_bs[bs][i];
      ASSERT_EQ(x.day, y.day);
      ASSERT_EQ(x.minute_of_day, y.minute_of_day);
      ASSERT_EQ(x.service, y.service);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(x.volume_mb),
                std::bit_cast<std::uint64_t>(y.volume_mb));
      ASSERT_EQ(std::bit_cast<std::uint64_t>(x.duration_s),
                std::bit_cast<std::uint64_t>(y.duration_s));
    }
  }
}

// Mid-day crash/resume under kBatch: crash in the commit hook at a minute
// mark (an exact cut, so the recorder holds exactly the prefix), resume
// into the same recorder from the serialized v2 checkpoint with a
// different worker count, and match an uninterrupted kBatch run
// bit-for-bit. The checkpoint carries no RNG state for either kernel: the
// resume replays the day's prefix, regenerating the BlockRng blocks below
// the mark without emitting them.
TEST(KernelParity, BatchKernelMidDayResumeIsBitIdentical) {
  const Network network = parity_network();
  const TraceConfig trace = parity_trace(2, 77);

  EngineConfig batch_config;
  batch_config.kernel = GeneratorKernel::kBatch;

  PerBsRecorder uninterrupted(network.size());
  StreamEngine full(network, trace, batch_config);
  const EngineResult full_result = full.run(uninterrupted);
  EXPECT_TRUE(full_result.checkpoint.complete());

  PerBsRecorder resumed(network.size());
  EngineConfig first_leg = batch_config;
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
  ASSERT_TRUE(saved.mid_day());
  // Nothing at or past the mark reached the sink.
  std::uint64_t prefix_sessions = 0;
  for (const std::vector<Session>& sessions : resumed.per_bs) {
    prefix_sessions += sessions.size();
  }
  EXPECT_EQ(prefix_sessions, saved.sessions_emitted);

  EngineConfig second_leg = batch_config;
  second_leg.num_workers = 4;
  second_leg.checkpoint_interval_minutes = 311;
  StreamEngine leg2(network, trace, second_leg);
  const EngineCheckpoint reloaded =
      EngineCheckpoint::from_json(Json::parse(saved.to_json().dump(2)));
  const EngineResult result = leg2.resume(reloaded, resumed);
  EXPECT_TRUE(result.checkpoint.complete());

  expect_identical(resumed, uninterrupted);
  EXPECT_EQ(result.checkpoint.sessions_emitted,
            full_result.checkpoint.sessions_emitted);
  EXPECT_DOUBLE_EQ(result.checkpoint.volume_mb,
                   full_result.checkpoint.volume_mb);
}

/// Aggregate session statistics of one kernel over the parity network.
struct KernelStats {
  std::uint64_t sessions = 0;
  double mean_log10_volume = 0.0;
  double mean_log10_duration = 0.0;
  double transient_fraction = 0.0;
  std::vector<double> service_share;
};

KernelStats collect_stats(GeneratorKernel kernel) {
  const Network network = parity_network();
  const TraceConfig trace = parity_trace(3, 999);
  EngineConfig config;
  config.kernel = kernel;

  struct StatsSink final : EventSink {
    std::uint64_t sessions = 0;
    std::uint64_t transients = 0;
    double sum_lv = 0.0;
    double sum_ld = 0.0;
    std::vector<std::uint64_t> per_service;
    StatsSink() : per_service(service_catalog().size(), 0) {}
    void on_event(const StreamEvent& event) override {
      if (event.kind() != EventKind::kSession) return;
      const Session& s = std::get<SessionEvent>(event.payload).session;
      ++sessions;
      transients += s.transient ? 1 : 0;
      sum_lv += std::log10(s.volume_mb);
      sum_ld += std::log10(s.duration_s);
      ++per_service[s.service];
    }
  } sink;

  StreamEngine engine(network, trace, config);
  const EngineResult result = engine.run(sink);
  EXPECT_TRUE(result.checkpoint.complete());

  KernelStats stats;
  stats.sessions = sink.sessions;
  stats.mean_log10_volume = sink.sum_lv / static_cast<double>(sink.sessions);
  stats.mean_log10_duration = sink.sum_ld / static_cast<double>(sink.sessions);
  stats.transient_fraction =
      static_cast<double>(sink.transients) / static_cast<double>(sink.sessions);
  for (const std::uint64_t n : sink.per_service) {
    stats.service_share.push_back(static_cast<double>(n) /
                                  static_cast<double>(sink.sessions));
  }
  return stats;
}

// The two kernels draw different streams but model the identical process:
// every aggregate must agree within sampling noise (tolerances are ~5x
// the binomial/CLT standard error at these sample sizes, loose enough to
// be seed-robust while catching any systematic modeling drift).
TEST(KernelParity, ScalarAndBatchKernelsAgreeStatistically) {
  const KernelStats scalar = collect_stats(GeneratorKernel::kScalar);
  const KernelStats batch = collect_stats(GeneratorKernel::kBatch);

  ASSERT_GT(scalar.sessions, 50000u);
  ASSERT_GT(batch.sessions, 50000u);

  // Arrival process: identical rates, so counts agree within a few %.
  const double count_ratio = static_cast<double>(batch.sessions) /
                             static_cast<double>(scalar.sessions);
  EXPECT_NEAR(count_ratio, 1.0, 0.03);

  EXPECT_NEAR(batch.mean_log10_volume, scalar.mean_log10_volume, 0.02);
  EXPECT_NEAR(batch.mean_log10_duration, scalar.mean_log10_duration, 0.02);
  EXPECT_NEAR(batch.transient_fraction, scalar.transient_fraction, 0.01);

  ASSERT_EQ(batch.service_share.size(), scalar.service_share.size());
  for (std::size_t s = 0; s < scalar.service_share.size(); ++s) {
    EXPECT_NEAR(batch.service_share[s], scalar.service_share[s], 0.01)
        << "service " << s;
  }
}

// Scenario plumbing: the kernel survives an EngineConfig JSON round trip
// and an unknown name is rejected (regression net for the config plane).
TEST(KernelParity, KernelNameRoundTripsThroughJson) {
  EXPECT_STREQ(to_string(GeneratorKernel::kScalar), "scalar");
  EXPECT_STREQ(to_string(GeneratorKernel::kBatch), "batch");
}

}  // namespace
}  // namespace mtd
