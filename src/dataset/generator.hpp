// Ground-truth session generation: the synthetic stand-in for the paper's
// RAN + gateway probe measurements.
//
// For every (BS, day, minute) the generator draws a number of new sessions
// from the planted bi-modal arrival process (circadian day/night switching,
// Sec. 4.1), assigns each session to a service according to the Table-1
// shares, and samples its full-session volume from the planted log10-normal
// mixture and its duration from the planted power law. In-transit users are
// modeled by dwell-time truncation, producing the transient sessions that
// the paper highlights (insight (e)).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/alias_table.hpp"
#include "common/batch_rng/block_rng.hpp"
#include "common/rng.hpp"
#include "dataset/network.hpp"
#include "dataset/service_catalog.hpp"

namespace mtd {

/// Which generation kernel a front-end drives (EngineConfig::kernel).
///
/// kScalar is the reference implementation: one mtd::Rng draw at a time,
/// bit-identical to every pre-batch release for any seed. kBatch fills
/// SoA minute buffers through the BlockRng lanes — 2-4x the sessions/s,
/// with its own versioned seed->stream mapping (BlockRng::kStreamVersion;
/// the two kernels agree statistically, never bit-for-bit).
enum class GeneratorKernel : std::uint8_t { kScalar, kBatch };

[[nodiscard]] const char* to_string(GeneratorKernel k) noexcept;

/// One generated transport-layer session.
struct Session {
  std::uint32_t bs = 0;
  std::uint16_t service = 0;
  std::uint16_t day = 0;
  std::uint16_t minute_of_day = 0;
  bool transient = false;
  /// Traffic volume served by this BS for this session, MB.
  double volume_mb = 0.0;
  /// Time the session spent at this BS, seconds.
  double duration_s = 0.0;

  [[nodiscard]] double throughput_mbps() const noexcept {
    return duration_s > 0.0 ? 8.0 * volume_mb / duration_s : 0.0;
  }
};

/// Samples the planted per-minute arrival count of one BS: Gaussian
/// (mean = peak_rate * activity, sigma = peak_rate / 10) during the daytime
/// phase, Pareto (shape 1.765, scale = offpeak_scale) overnight.
class ArrivalProcess {
 public:
  /// The fixed Pareto shape of the off-peak mode (Sec. 5.1).
  static constexpr double kOffpeakShape = 1.765;
  /// Activity threshold separating the two circadian phases.
  static constexpr double kDayThreshold = 0.5;

  explicit ArrivalProcess(const BaseStation& bs) : bs_(&bs) {}

  /// Number of sessions arriving during `minute_of_day`.
  [[nodiscard]] std::uint32_t sample(std::size_t minute_of_day,
                                     Rng& rng) const;

  /// Batch-stream arrival draw: same two-phase model, drawn from the
  /// BlockRng tail lane (day phase: one tail_normal; night: one
  /// tail_pareto). Part of the versioned batch stream — it is the first
  /// tail draw of every minute block.
  [[nodiscard]] std::uint32_t sample_batch(std::size_t minute_of_day,
                                           BlockRng& rng) const;

  /// True when the minute falls in the daytime (Gaussian) phase.
  [[nodiscard]] static bool is_day_phase(std::size_t minute_of_day);

 private:
  const BaseStation* bs_;
};

/// Samples one session of a service from its ground-truth profile.
class SessionSampler {
 public:
  explicit SessionSampler(const ServiceProfile& profile);

  struct Draw {
    double volume_mb;
    double duration_s;
    bool transient;
  };

  [[nodiscard]] Draw sample(Rng& rng) const;

  [[nodiscard]] const ServiceProfile& profile() const noexcept {
    return *profile_;
  }

 private:
  const ServiceProfile* profile_;
  Log10NormalMixture volume_mixture_;
  double alpha_;
};

/// Structure-of-arrays buffers of one generated minute: column i across
/// the output vectors is session i of the minute, in batch draw order.
/// Workers convert these columns to events just before the ring push; the
/// scratch columns carry the intermediate uniforms/deviates/exponents so a
/// reused MinuteBlock allocates only while warming up.
struct MinuteBlock {
  std::uint32_t count = 0;

  // -- outputs ---------------------------------------------------------------
  std::vector<std::uint16_t> service;
  std::vector<double> volume_mb;
  std::vector<double> duration_s;
  std::vector<std::uint8_t> transient;

  // -- scratch ---------------------------------------------------------------
  struct Scratch {
    std::vector<std::uint32_t> svc;   // alias picks (widened)
    std::vector<double> u;            // fused uniform columns (5 n)
    std::vector<double> z0, z1;       // normal deviates
    std::vector<double> xv, xd;       // log2 volume / duration exponents
    std::vector<std::uint32_t> midx;  // compacted mobile-candidate indices
    std::vector<double> du;           // dwell Box-Muller uniforms
    std::vector<double> dz;           // dwell normal deviates
    std::vector<double> dw;           // dwell times, seconds
  } scratch;

  /// Grows every column to hold `n` sessions (never shrinks).
  void resize(std::size_t n);
};

/// Flattened per-service sampling parameters driving the SoA minute fill.
///
/// The fill is phase-split so the arithmetic-heavy loops carry no gathers:
/// (A) one gather pass resolves each session's service/component and
/// computes the log2 exponent columns, (B) block exp2 + branch-free
/// clamps, (C) the data-dependent dwell truncation over the compacted
/// mobile candidates. The per-minute draw order is part of the versioned
/// batch stream (BlockRng v1): one arrival tail draw; one fused uniform
/// block of 5 n (columns: service pick, component pick, Box-Muller
/// radius, Box-Muller angle, mobility); then — with m = the number of
/// mobile candidates, in session order — one uniform block of
/// 2 ceil(m / 2) feeding ceil(m / 2) Box-Muller pairs whose deviates are
/// consumed cos-half-first for the m dwell times.
class SessionBlockKernel {
 public:
  SessionBlockKernel() = default;
  explicit SessionBlockKernel(std::span<const ServiceProfile> catalog);

  /// Fills `out` with `count` sessions drawn from `rng` (service picked
  /// through `service_alias`).
  void fill(BlockRng& rng, const AliasTable& service_alias,
            std::uint32_t count, MinuteBlock& out) const;

 private:
  static constexpr std::size_t kScan = Log10NormalMixture::kScanComponents;

  struct Service {
    std::array<double, kScan> cum;    // scan thresholds (padded 2.0)
    std::array<double, kScan> mu;     // component log10 locations
    std::array<double, kScan> sigma;  // component log10 scales
    double log2_alpha = 0.0;          // log2 of the power-law alpha
    double inv_beta = 1.0;            // 1 / beta
    double dur_sigma_l2 = 0.0;        // duration_sigma * log2(10)
    double p_mobile = 0.0;
  };

  std::vector<Service> services_;
  double dwell_mu_ = 0.0;     // shared dwell-time log10 location
  double dwell_sigma_ = 0.0;  // shared dwell-time log10 scale
};

struct TraceConfig {
  /// Number of simulated days; day 0 is a Monday.
  std::size_t num_days = 7;
  std::uint64_t seed = 42;
  /// Global multiplier on arrival rates (load scaling for quick tests).
  double rate_scale = 1.0;
  /// Arrival-rate multiplier on weekends. BS-level loads are known to dip
  /// on weekends ([14] in the paper) even though the *session-level*
  /// statistics stay invariant (Sec. 4.4) - fewer sessions, same behavior.
  double weekend_rate_factor = 0.85;
};

/// Receives the generated trace. `on_minute` is called once per
/// (BS, day, minute) with the total arrival count (including zero);
/// `on_session` once per session.
struct TraceSink {
  virtual ~TraceSink() = default;
  virtual void on_minute(const BaseStation& bs, std::size_t day,
                         std::size_t minute_of_day, std::uint32_t count) = 0;
  virtual void on_session(const Session& session) = 0;
};

/// Drives the full generation over a network and a number of days.
class TraceGenerator {
 public:
  TraceGenerator(const Network& network, TraceConfig config);

  /// Generates the whole trace into `sink`. Deterministic given the config
  /// seed and network.
  void run(TraceSink& sink) const;

  /// Generates only one (BS, day) through the selected kernel: every
  /// minute goes through sample_minute and each column is forwarded as a
  /// Session. The two kernels' streams differ bit-wise but agree
  /// statistically (tests/test_kernel_parity.cpp).
  void run_bs_day(const BaseStation& bs, std::size_t day, TraceSink& sink,
                  GeneratorKernel kernel = GeneratorKernel::kScalar) const;

  // -- streaming primitives ---------------------------------------------------
  // The per-(BS, day) generation stream is defined by three pieces that the
  // batch path above composes; they are public so streaming front-ends
  // (src/engine) can interleave many BSs minute-by-minute while consuming
  // each (BS, day) RNG stream in exactly the batch order. Any reordering
  // across BSs is therefore bit-identical to run()/run_bs_day() per BS.

  /// The deterministic RNG stream of one (BS, day). Independent per pair, so
  /// generation order across pairs does not matter.
  [[nodiscard]] Rng bs_day_rng(const BaseStation& bs, std::size_t day) const;

  /// The BS with its arrival rates scaled for `day` (global rate_scale plus
  /// the weekend factor).
  [[nodiscard]] BaseStation day_scaled(const BaseStation& bs,
                                       std::size_t day) const;

  /// Draws the next session arriving at (bs, day, minute), advancing `rng`
  /// exactly as the batch generator does (service pick, volume, duration,
  /// transient truncation).
  [[nodiscard]] Session sample_session(const BaseStation& bs, std::size_t day,
                                       std::size_t minute_of_day,
                                       Rng& rng) const;

  /// Fills `out` with every session of (bs, day, minute) under `kernel` —
  /// the one place generation branches on the kernel. `day_scaled_bs` must
  /// be day_scaled(bs, day). kScalar draws the arrival count and then that
  /// many sample_session draws from `rng`, the (BS, day) stream positioned
  /// at this minute; kBatch is sample_minute_block and leaves `rng`
  /// untouched (parked at the day base state).
  void sample_minute(const BaseStation& day_scaled_bs, std::size_t day,
                     std::size_t minute_of_day, Rng& rng,
                     GeneratorKernel kernel, MinuteBlock& out) const;

  // -- batch kernel (SoA minute path) -----------------------------------------

  /// Fills `out` with every session of (bs, day, minute) through the SoA
  /// batch kernel. `day_scaled_bs` must be day_scaled(bs, day) — passed in
  /// so per-minute callers scale once per day, not per minute. Each minute
  /// is an independent BlockRng stream (v1 mapping seeded from
  /// bs_day_rng's unconsumed state), so minutes can be generated in any
  /// order and resume needs no batch RNG cursor.
  void sample_minute_block(const BaseStation& day_scaled_bs, std::size_t day,
                           std::size_t minute_of_day, MinuteBlock& out) const;

  [[nodiscard]] const Network& network() const noexcept { return *network_; }
  [[nodiscard]] const TraceConfig& config() const noexcept { return config_; }

 private:
  const Network* network_;
  TraceConfig config_;
  std::vector<SessionSampler> samplers_;
  AliasTable service_alias_;       // O(1) Table-1 share draws
  SessionBlockKernel block_kernel_;  // flattened params of the SoA path
};

}  // namespace mtd
