#include "dataset/generator.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/time_utils.hpp"

namespace mtd {

const char* to_string(GeneratorKernel k) noexcept {
  switch (k) {
    case GeneratorKernel::kScalar:
      return "scalar";
    case GeneratorKernel::kBatch:
      return "batch";
  }
  return "unknown";
}

bool ArrivalProcess::is_day_phase(std::size_t minute_of_day) {
  return circadian_day_phase(minute_of_day);
}

std::uint32_t ArrivalProcess::sample(std::size_t minute_of_day,
                                     Rng& rng) const {
  // Precomputed per-minute table: the logistic ramps + evening bump cost
  // three exp calls when evaluated directly, once per (BS, minute).
  const double activity = circadian_activity_lut(minute_of_day);
  if (activity > kDayThreshold) {
    // Daytime mode: Gaussian around the BS peak rate, modulated by the
    // (mild) intra-day activity fluctuation; sigma = mu / 10 (Sec. 5.1).
    const double mu = bs_->peak_rate * activity;
    const double x = rng.normal(mu, bs_->peak_rate / 10.0);
    return x <= 0.0 ? 0u : static_cast<std::uint32_t>(std::lround(x));
  }
  // Off-peak mode: Pareto with the fixed shape of Sec. 5.1. The continuous
  // draw is floored, so most overnight minutes see zero or few arrivals.
  const double x = rng.pareto(kOffpeakShape, bs_->offpeak_scale);
  return static_cast<std::uint32_t>(std::floor(std::min(x, 1e6)));
}

std::uint32_t ArrivalProcess::sample_batch(std::size_t minute_of_day,
                                           BlockRng& rng) const {
  // Mirrors sample() with the draws taken from the batch tail lane; the
  // count rounding and caps are identical.
  const double activity = circadian_activity_lut(minute_of_day);
  if (activity > kDayThreshold) {
    const double mu = bs_->peak_rate * activity;
    const double x = mu + (bs_->peak_rate / 10.0) * rng.tail_normal();
    return x <= 0.0 ? 0u : static_cast<std::uint32_t>(std::lround(x));
  }
  const double x = rng.tail_pareto(kOffpeakShape, bs_->offpeak_scale);
  return static_cast<std::uint32_t>(std::floor(std::min(x, 1e6)));
}

SessionSampler::SessionSampler(const ServiceProfile& profile)
    : profile_(&profile),
      volume_mixture_(profile.volume_mixture()),
      alpha_(profile.alpha()) {}

SessionSampler::Draw SessionSampler::sample(Rng& rng) const {
  // Full-session volume from the planted mixture, duration from the planted
  // power law v(d) = alpha d^beta inverted at the sampled volume, with
  // log-normal scatter.
  double volume = volume_mixture_.sample(rng);
  volume = std::max(volume, 1e-4);  // >= 0.1 KB
  double duration =
      std::pow(volume / alpha_, 1.0 / profile_->beta) *
      rng.log10_normal(0.0, profile_->duration_sigma);
  duration = std::clamp(duration, 1.0, 6.0 * 3600.0);

  Draw draw{volume, duration, false};

  if (rng.bernoulli(profile_->p_mobile)) {
    const double dwell = dwell_time_distribution().sample(rng);
    if (dwell < draw.duration_s) {
      // The UE leaves the BS before the session completes: the BS only
      // serves the prefix. Volume scales with the served fraction
      // (constant intra-session throughput assumption).
      draw.volume_mb *= dwell / draw.duration_s;
      draw.volume_mb = std::max(draw.volume_mb, 1e-4);
      draw.duration_s = std::max(dwell, 1.0);
      draw.transient = true;
    }
  }
  return draw;
}

void MinuteBlock::resize(std::size_t n) {
  if (service.size() >= n) {
    count = static_cast<std::uint32_t>(n);
    return;
  }
  service.resize(n);
  volume_mb.resize(n);
  duration_s.resize(n);
  transient.resize(n);
  scratch.svc.resize(n);
  scratch.u.resize(5 * n);
  scratch.z0.resize(n);
  scratch.z1.resize(n);
  scratch.xv.resize(n);
  scratch.xd.resize(n);
  scratch.midx.resize(n);
  scratch.du.resize(n + 2);  // 2 ceil(n / 2) dwell uniforms at most
  scratch.dz.resize(n + 1);
  scratch.dw.resize(n);
  count = static_cast<std::uint32_t>(n);
}

SessionBlockKernel::SessionBlockKernel(
    std::span<const ServiceProfile> catalog) {
  services_.reserve(catalog.size());
  for (const ServiceProfile& profile : catalog) {
    const Log10NormalMixture mixture = profile.volume_mixture();
    require(mixture.size() <= kScan,
            "SessionBlockKernel: mixture exceeds the scan width");
    Service sv;
    sv.cum = mixture.scan_cum();
    sv.mu = mixture.scan_mu();
    sv.sigma = mixture.scan_sigma();
    sv.log2_alpha = std::log2(profile.alpha());
    sv.inv_beta = 1.0 / profile.beta;
    sv.dur_sigma_l2 = profile.duration_sigma * vec::kLog2Of10;
    sv.p_mobile = profile.p_mobile;
    services_.push_back(sv);
  }
  const Log10Normal& dwell = dwell_time_distribution();
  dwell_mu_ = dwell.mu();
  dwell_sigma_ = dwell.sigma();
}

void SessionBlockKernel::fill(BlockRng& rng, const AliasTable& service_alias,
                              std::uint32_t count, MinuteBlock& out) const {
  const std::size_t n = count;
  out.resize(n);
  out.count = count;
  if (n == 0) return;
  auto& s = out.scratch;

  // Fixed block-draw order — part of the v1 batch stream (block_rng.hpp).
  // One fused uniform block covers every per-session column; the slices
  // are consumed as documented in the class comment.
  rng.uniform_block(s.u.data(), 5 * n);
  const double* u_svc = s.u.data();
  const double* u_comp = s.u.data() + n;
  double* ua = s.u.data() + 2 * n;  // BM radius, mapped [0,1) -> (0,1]
  const double* ub = s.u.data() + 3 * n;
  const double* u_mob = s.u.data() + 4 * n;
  service_alias.sample_block(u_svc, s.svc.data(), n);
  for (std::size_t i = 0; i < n; ++i) ua[i] = 1.0 - ua[i];
  vec::normal_pair_block(ua, ub, s.z0.data(), s.z1.data(), n);

  // Phase A: the only gather pass. Resolve service + mixture component
  // and compute both log2 exponent columns; compact the mobile-candidate
  // indices on the way through. The log10 floor at -4 is the scalar
  // path's 1e-4 MB volume floor applied before the exponential (monotone,
  // so equivalent), and feeding the floored volume into the duration law
  // matches the scalar order.
  std::uint32_t m = 0;  // mobile candidates
  for (std::size_t i = 0; i < n; ++i) {
    const Service& sv = services_[s.svc[i]];
    const double u = u_comp[i];
    const std::size_t c = static_cast<std::size_t>(
        (u >= sv.cum[0]) + (u >= sv.cum[1]) + (u >= sv.cum[2]));
    out.service[i] = static_cast<std::uint16_t>(s.svc[i]);
    const double lv =
        std::max(sv.mu[c] + sv.sigma[c] * s.z0[i], -4.0) * vec::kLog2Of10;
    s.xv[i] = lv;  // log2 volume
    s.xd[i] = (lv - sv.log2_alpha) * sv.inv_beta +
              sv.dur_sigma_l2 * s.z1[i];  // log2 duration
    s.midx[m] = static_cast<std::uint32_t>(i);
    m += u_mob[i] < sv.p_mobile ? 1u : 0u;
  }

  // Phase B: block exp2 per column, branch-free clamps and defaults.
  vec::exp2_block(s.xv.data(), out.volume_mb.data(), n);
  vec::exp2_block(s.xd.data(), out.duration_s.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    out.duration_s[i] = std::clamp(out.duration_s[i], 1.0, 6.0 * 3600.0);
    out.transient[i] = 0;
  }
  if (m == 0) return;

  // Phase C: dwell truncation. The m dwell times draw as ceil(m / 2)
  // Box-Muller pairs consumed cos-half-first, then scatter back to the
  // compacted sessions; truncation semantics match SessionSampler::sample
  // exactly.
  const std::size_t pairs = (m + 1) / 2;
  rng.uniform_block(s.du.data(), 2 * pairs);
  for (std::size_t j = 0; j < pairs; ++j) s.du[j] = 1.0 - s.du[j];
  vec::normal_pair_block(s.du.data(), s.du.data() + pairs, s.dz.data(),
                         s.dz.data() + pairs, pairs);
  for (std::size_t j = 0; j < m; ++j) {
    s.dw[j] = dwell_mu_ + dwell_sigma_ * s.dz[j];
  }
  vec::pow10_block(s.dw.data(), s.dw.data(), m);
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t i = s.midx[j];
    const double dwell = s.dw[j];
    if (dwell < out.duration_s[i]) {
      out.volume_mb[i] =
          std::max(out.volume_mb[i] * (dwell / out.duration_s[i]), 1e-4);
      out.duration_s[i] = std::max(dwell, 1.0);
      out.transient[i] = 1;
    }
  }
}

TraceGenerator::TraceGenerator(const Network& network, TraceConfig config)
    : network_(&network), config_(config) {
  require(config.num_days >= 1, "TraceGenerator: need at least one day");
  require(config.rate_scale > 0.0, "TraceGenerator: rate_scale must be > 0");
  require(config.weekend_rate_factor > 0.0,
          "TraceGenerator: weekend_rate_factor must be > 0");
  const auto& catalog = service_catalog();
  samplers_.reserve(catalog.size());
  for (const auto& profile : catalog) samplers_.emplace_back(profile);
  service_alias_ = AliasTable(normalized_session_shares());
  block_kernel_ = SessionBlockKernel(catalog);
}

Rng TraceGenerator::bs_day_rng(const BaseStation& bs, std::size_t day) const {
  // One independent stream per (BS, day) keeps generation order-independent.
  return Rng(config_.seed ^ (0x9e3779b97f4a7c15ULL * (bs.id + 1)) ^
             (0xc2b2ae3d27d4eb4fULL * (day + 1)));
}

BaseStation TraceGenerator::day_scaled(const BaseStation& bs,
                                       std::size_t day) const {
  BaseStation scaled = bs;
  double rate = config_.rate_scale;
  if (day_type(day) == DayType::kWeekend) rate *= config_.weekend_rate_factor;
  scaled.peak_rate *= rate;
  scaled.offpeak_scale *= rate;
  return scaled;
}

Session TraceGenerator::sample_session(const BaseStation& bs, std::size_t day,
                                       std::size_t minute_of_day,
                                       Rng& rng) const {
  // Service assignment by Table-1 session shares: O(1) alias draw
  // consuming exactly one uniform, as the CDF inversion it replaced did.
  const std::size_t svc = service_alias_.sample(rng);
  const SessionSampler::Draw draw = samplers_[svc].sample(rng);
  Session session;
  session.bs = bs.id;
  session.day = static_cast<std::uint16_t>(day);
  session.minute_of_day = static_cast<std::uint16_t>(minute_of_day);
  session.service = static_cast<std::uint16_t>(svc);
  session.transient = draw.transient;
  session.volume_mb = draw.volume_mb;
  session.duration_s = draw.duration_s;
  return session;
}

void TraceGenerator::sample_minute_block(const BaseStation& day_scaled_bs,
                                         std::size_t day,
                                         std::size_t minute_of_day,
                                         MinuteBlock& out) const {
  // The block stream seeds from the *unconsumed* bs_day_rng state, so the
  // scalar and batch paths share one (seed, bs, day) root.
  BlockRng rng(bs_day_rng(day_scaled_bs, day), minute_of_day);
  const ArrivalProcess arrivals(day_scaled_bs);
  const std::uint32_t count = arrivals.sample_batch(minute_of_day, rng);
  block_kernel_.fill(rng, service_alias_, count, out);
}

void TraceGenerator::sample_minute(const BaseStation& day_scaled_bs,
                                   std::size_t day, std::size_t minute_of_day,
                                   Rng& rng, GeneratorKernel kernel,
                                   MinuteBlock& out) const {
  if (kernel == GeneratorKernel::kBatch) {
    sample_minute_block(day_scaled_bs, day, minute_of_day, out);
    return;
  }
  const std::uint32_t count =
      ArrivalProcess(day_scaled_bs).sample(minute_of_day, rng);
  out.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const Session session =
        sample_session(day_scaled_bs, day, minute_of_day, rng);
    out.service[i] = session.service;
    out.volume_mb[i] = session.volume_mb;
    out.duration_s[i] = session.duration_s;
    out.transient[i] = session.transient ? 1 : 0;
  }
}

void TraceGenerator::run_bs_day(const BaseStation& bs, std::size_t day,
                                TraceSink& sink,
                                GeneratorKernel kernel) const {
  Rng rng = bs_day_rng(bs, day);
  const BaseStation scaled = day_scaled(bs, day);
  MinuteBlock block;
  Session session;
  session.bs = bs.id;
  session.day = static_cast<std::uint16_t>(day);
  for (std::size_t minute = 0; minute < kMinutesPerDay; ++minute) {
    sample_minute(scaled, day, minute, rng, kernel, block);
    sink.on_minute(bs, day, minute, block.count);
    session.minute_of_day = static_cast<std::uint16_t>(minute);
    for (std::uint32_t i = 0; i < block.count; ++i) {
      session.service = block.service[i];
      session.transient = block.transient[i] != 0;
      session.volume_mb = block.volume_mb[i];
      session.duration_s = block.duration_s[i];
      sink.on_session(session);
    }
  }
}

void TraceGenerator::run(TraceSink& sink) const {
  for (const BaseStation& bs : network_->base_stations()) {
    for (std::size_t day = 0; day < config_.num_days; ++day) {
      run_bs_day(bs, day, sink);
    }
  }
}

}  // namespace mtd
