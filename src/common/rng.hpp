// Deterministic, seedable pseudo-random number generation.
//
// All stochastic components of the library draw from mtd::Rng so that every
// experiment is reproducible from a single 64-bit seed.  The generator is
// xoshiro256** (Blackman & Vigna), seeded through SplitMix64; both are public
// domain algorithms with excellent statistical quality and trivial state.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <cstddef>

namespace mtd {

/// 10^x via exp2(x * log2(10)). One exp2 (which libm dispatches to its
/// fastest exponential kernel) instead of the general-power path of
/// pow(10, x); accurate to ~2 ulp, which is far below the sampling noise
/// of any stochastic draw this library makes. All hot-path base-10
/// exponentiations (log-normal volume draws, duration jitter) route
/// through here so they speed up — and stay bit-identical to each other —
/// together.
[[nodiscard]] inline double pow10_fast(double x) noexcept {
  // log2(10) to full double precision.
  constexpr double kLog2Of10 = 3.321928094887362347870319429489390175865;
  return std::exp2(x * kLog2Of10);
}

/// SplitMix64: used to expand a 64-bit seed into generator state and as a
/// cheap standalone generator for stream splitting.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** pseudo-random generator with distribution helpers.
///
/// Satisfies the UniformRandomBitGenerator named requirement, so it can also
/// be plugged into <random> distributions when convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x6d7464u /* "mtd" */) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept { return next_u64(); }

  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    // 53 random mantissa bits.
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n); n must be positive.
  std::uint64_t uniform_index(std::uint64_t n) noexcept {
    // Lemire's nearly-divisionless bounded generation.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t t = (~n + 1) % n;
      while (lo < t) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Standard normal deviate (Marsaglia polar method, cached spare).
  double normal() noexcept;

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Exponential deviate with the given rate (lambda > 0).
  double exponential(double rate) noexcept;

  /// Pareto (type I) deviate: support [scale, inf), shape > 0.
  double pareto(double shape, double scale) noexcept;

  /// Log-normal deviate in base 10: 10^N(mu, sigma).
  double log10_normal(double mu, double sigma) noexcept;

  /// Poisson deviate (Knuth for small mean, PTRS-style normal approx refined
  /// by inversion is unnecessary here; we use Knuth + normal fallback).
  std::uint64_t poisson(double mean) noexcept;

  /// Bernoulli trial with probability p.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Derives an independent child generator; stable given (seed, stream id).
  /// Reads only the state, so concurrent jobs may split one shared root.
  [[nodiscard]] Rng split(std::uint64_t stream) const noexcept {
    SplitMix64 sm(state_[0] ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
    return Rng(sm.next());
  }

  /// The full 256-bit generator state. Together with set_state this allows
  /// suspending and resuming a stream bit-identically. The cached spare
  /// normal deviate is intentionally not part of the state: capture/restore
  /// only at points where no spare is pending (any state taken before the
  /// first normal() call, or via a fresh copy).
  [[nodiscard]] std::array<std::uint64_t, 4> state() const noexcept {
    return state_;
  }

  /// Restores a state previously obtained from state(); drops any cached
  /// spare normal deviate.
  void set_state(const std::array<std::uint64_t, 4>& state) noexcept {
    state_ = state;
    has_spare_ = false;
    spare_normal_ = 0.0;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace mtd
