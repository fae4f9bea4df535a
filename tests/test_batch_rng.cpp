// The versioned batch stream (BlockRng v1) and its polynomial kernels.
//
// Three layers of guarantees, strongest first:
//
//   1. Committed digests. FNV-1a over the raw bit patterns of defined draw
//      sequences — uniforms, Box-Muller pairs, tail draws, and a full
//      SessionBlockKernel minute — pinned as constants. They were generated
//      from the v1 implementation and must never change while
//      BlockRng::kStreamVersion == 1: the kernels are libm-free
//      (common/batch_rng/vec_math.hpp) and the tree builds with
//      -ffp-contract=off, so the digests hold across compilers, libm
//      versions, and -march levels (CI runs an -march=x86-64-v3 leg).
//      A mismatch means the seed->stream mapping broke: either revert, or
//      bump kStreamVersion, refresh these constants, and document the bump
//      in DESIGN.md sec. 16.
//
//   2. First-principles reconstruction. The v1 lane mapping documented in
//      block_rng.hpp is re-implemented here from scratch (local SplitMix64
//      and xoshiro256** copies) and checked bit-for-bit against BlockRng —
//      the documentation IS the spec, not the implementation.
//
//   3. Accuracy and distribution. The polynomial kernels against libm at
//      the documented error bounds, and moments of the generated uniforms
//      and normals.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/batch_rng/block_rng.hpp"
#include "common/batch_rng/vec_math.hpp"
#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "dataset/generator.hpp"
#include "dataset/network.hpp"

namespace mtd {
namespace {

// ---------------------------------------------------------------------------
// digest helpers

std::uint64_t digest_doubles(std::span<const double> xs) noexcept {
  std::uint64_t h = kFnvOffsetBasis;
  for (const double x : xs) {
    h = fnv1a64_word(h, std::bit_cast<std::uint64_t>(x));
  }
  return h;
}

// ---------------------------------------------------------------------------
// 1. committed digests of the v1 stream

// The digests below pin mapping version 1. Any intentional stream break
// must bump this constant (and the digests, and DESIGN.md sec. 16).
TEST(BatchRng, StreamVersionIsOne) {
  EXPECT_EQ(BlockRng::kStreamVersion, 1u);
  EXPECT_EQ(BlockRng::kLanes, 4u);
  EXPECT_EQ(BlockRng::kStreamSalt, 0x4d54445f62726e31ULL);  // "MTD_brn1"
}

TEST(BatchRng, UniformBlockDigestIsPinned) {
  const Rng base(20231024);
  std::vector<double> u(256);

  BlockRng b0(base, 0);
  b0.uniform_block(u.data(), u.size());
  EXPECT_EQ(digest_doubles(u), UINT64_C(0x459AE208D256E5E4));

  BlockRng b7(base, 7);
  b7.uniform_block(u.data(), u.size());
  EXPECT_EQ(digest_doubles(u), UINT64_C(0x705A02C7EEDF49F7));

  // Open-interval variant ((0, 1]; Box-Muller's log argument).
  BlockRng b1(base, 1);
  b1.uniform_open_block(u.data(), u.size());
  EXPECT_EQ(digest_doubles(u), UINT64_C(0x44EC7E0AD56226B1));
}

TEST(BatchRng, NormalPairBlockDigestIsPinned) {
  const Rng base(20231024);
  BlockRng rng(base, 3);
  std::vector<double> z0(128);
  std::vector<double> z1(128);
  std::vector<double> scratch(256);
  rng.normal_pair_block(z0.data(), z1.data(), scratch.data(), z0.size());
  std::uint64_t h = digest_doubles(z0);
  h = fnv1a64_word(h, digest_doubles(z1));
  EXPECT_EQ(h, UINT64_C(0xB8B6279C03E699D8));
}

TEST(BatchRng, TailDrawDigestIsPinned) {
  const Rng base(20231024);
  BlockRng rng(base, 5);
  std::vector<double> draws;
  for (int i = 0; i < 8; ++i) draws.push_back(rng.tail_uniform());
  for (int i = 0; i < 8; ++i) draws.push_back(rng.tail_normal());
  for (int i = 0; i < 4; ++i) draws.push_back(rng.tail_log10_normal(0.5, 1.2));
  for (int i = 0; i < 4; ++i) draws.push_back(rng.tail_pareto(0.8, 0.1));
  EXPECT_EQ(digest_doubles(draws), UINT64_C(0xE625BBD4D44ECDD7));
}

/// A fixture network small enough for the digest to stay cheap but with a
/// busy BS so minute blocks are non-trivial.
Network digest_network() {
  std::vector<BaseStation> bss(2);
  bss[0].decile = 9;
  bss[0].peak_rate = 40.0;
  bss[0].offpeak_scale = 0.5;
  bss[1].decile = 3;
  bss[1].peak_rate = 6.0;
  bss[1].offpeak_scale = 0.2;
  return Network::from_base_stations(std::move(bss));
}

// The full per-minute draw layout of SessionBlockKernel (the composed v1
// stream the engine's kBatch kernel emits), pinned over three minutes of
// the busy fixture BS: counts, service picks, volumes, durations, starts
// and transient flags all enter the digest.
TEST(BatchRng, MinuteBlockDigestIsPinned) {
  const Network network = digest_network();
  TraceConfig trace;
  trace.num_days = 1;
  trace.seed = 20231024;
  const TraceGenerator generator(network, trace);
  const BaseStation scaled = generator.day_scaled(network[0], 0);

  std::uint64_t h = kFnvOffsetBasis;
  MinuteBlock block;
  std::uint64_t total = 0;
  for (const std::size_t minute : {std::size_t{0}, std::size_t{540},
                                   std::size_t{1200}}) {
    generator.sample_minute_block(scaled, 0, minute, block);
    h = fnv1a64_word(h, block.count);
    total += block.count;
    for (std::uint32_t i = 0; i < block.count; ++i) {
      h = fnv1a64_word(h, block.service[i]);
      h = fnv1a64_word(h, std::bit_cast<std::uint64_t>(block.volume_mb[i]));
      h = fnv1a64_word(h, std::bit_cast<std::uint64_t>(block.duration_s[i]));
      // Every session of the block starts at the minute boundary.
      h = fnv1a64_word(
          h, std::bit_cast<std::uint64_t>(60.0 * static_cast<double>(minute)));
      h = fnv1a64_word(h, block.transient[i]);
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_EQ(h, UINT64_C(0xD453485A81ABC4BD));
}

// ---------------------------------------------------------------------------
// 2. the v1 mapping reconstructed from its documentation

/// Local SplitMix64 — deliberately NOT mtd::SplitMix64, so this test
/// validates the documented algorithm, not the library against itself.
struct RefSplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

/// Local xoshiro256** step.
std::uint64_t ref_step(std::array<std::uint64_t, 4>& s) {
  const auto rotl = [](std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  };
  const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}

TEST(BatchRng, V1MappingMatchesItsDocumentation) {
  const Rng base(987654321);
  const std::array<std::uint64_t, 4> s = base.state();
  const std::uint64_t block = 42;

  // Reconstruct the five lane states per the block_rng.hpp comment.
  std::array<std::array<std::uint64_t, 4>, 5> lanes;
  for (std::uint64_t l = 0; l < 5; ++l) {
    RefSplitMix sm{s[0] ^ s[1] ^ BlockRng::kStreamSalt ^
                   (0x9e3779b97f4a7c15ULL * (block * 8 + l + 1))};
    for (auto& w : lanes[l]) w = sm.next();
  }

  // uniform_block interleave: out[i] = lane i % 4, draw i / 4, mapped
  // (x >> 11) * 2^-53.
  std::vector<double> expected(23);
  {
    std::array<std::array<std::uint64_t, 4>, 4> lane_states{
        lanes[0], lanes[1], lanes[2], lanes[3]};
    std::vector<std::vector<double>> per_lane(4);
    for (std::size_t l = 0; l < 4; ++l) {
      for (int d = 0; d < 6; ++d) {
        per_lane[l].push_back(
            static_cast<double>(ref_step(lane_states[l]) >> 11) * 0x1.0p-53);
      }
    }
    for (std::size_t i = 0; i < expected.size(); ++i) {
      expected[i] = per_lane[i % 4][i / 4];
    }
  }

  // 23 is deliberately ragged: the trailing partial round must discard the
  // unused lane draws (the consumed count depends only on n).
  BlockRng rng(base, block);
  std::vector<double> got(23);
  rng.uniform_block(got.data(), got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(expected[i]))
        << "index " << i;
  }

  // The tail lane (l = 4) draws scalar uniforms from the same recurrence.
  std::array<std::uint64_t, 4> tail = lanes[4];
  EXPECT_EQ(std::bit_cast<std::uint64_t>(rng.tail_uniform()),
            std::bit_cast<std::uint64_t>(
                static_cast<double>(ref_step(tail) >> 11) * 0x1.0p-53));
}

TEST(BatchRng, BlocksAreIndependentOfGenerationOrder) {
  const Rng base(13);
  std::vector<double> a(64);
  std::vector<double> b(64);

  // Draw block 9 then block 2...
  BlockRng first(base, 9);
  first.uniform_block(a.data(), a.size());
  BlockRng second(base, 2);
  second.uniform_block(b.data(), b.size());

  // ...and in the opposite order: identical streams (each block seeds
  // from the unconsumed base state, never from another block).
  std::vector<double> a2(64);
  std::vector<double> b2(64);
  BlockRng second2(base, 2);
  second2.uniform_block(b2.data(), b2.size());
  BlockRng first2(base, 9);
  first2.uniform_block(a2.data(), a2.size());

  EXPECT_EQ(a, a2);
  EXPECT_EQ(b, b2);
}

// ---------------------------------------------------------------------------
// 3. polynomial accuracy vs libm and draw distributions

TEST(VecMath, Exp2MatchesLibm) {
  for (double x = -1020.0; x <= 1020.0; x += 0.37) {
    const double got = vec::exp2_poly(x);
    const double want = std::exp2(x);
    EXPECT_NEAR(got / want, 1.0, 5e-12) << "x = " << x;
  }
  // Dense around 0 where the generator spends most of its time.
  for (double x = -8.0; x <= 8.0; x += 0.001) {
    EXPECT_NEAR(vec::exp2_poly(x) / std::exp2(x), 1.0, 5e-12) << "x = " << x;
  }
  EXPECT_DOUBLE_EQ(vec::exp2_poly(0.0), 1.0);
  EXPECT_DOUBLE_EQ(vec::exp2_poly(10.0), 1024.0);
}

TEST(VecMath, Log2MatchesLibm) {
  // The generator's input ranges: uniforms in (0, 1] and volumes around
  // [1e-4, 1e6]. Error is measured against max(1, |log2 x|): the series
  // is absolutely accurate near x = 1 where log2 crosses zero.
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    const double x = std::exp2(rng.uniform(-20.0, 20.0));
    const double got = vec::log2_poly(x);
    const double want = std::log2(x);
    EXPECT_NEAR(got, want, 1e-12 * std::max(1.0, std::fabs(want)))
        << "x = " << x;
  }
  EXPECT_DOUBLE_EQ(vec::log2_poly(1.0), 0.0);
  EXPECT_DOUBLE_EQ(vec::log2_poly(8.0), 3.0);
  EXPECT_DOUBLE_EQ(vec::log2_poly(0.25), -2.0);
}

TEST(VecMath, Pow10MatchesLibm) {
  for (double x = -6.0; x <= 7.0; x += 0.0037) {
    EXPECT_NEAR(vec::pow10_poly(x) / std::pow(10.0, x), 1.0, 1e-11)
        << "x = " << x;
  }
}

TEST(VecMath, SinCosPiMatchLibm) {
  for (double a = -0.5; a <= 0.5; a += 0.0001) {
    EXPECT_NEAR(vec::sinpi_poly(a), std::sin(3.14159265358979312 * a), 1e-9)
        << "a = " << a;
    EXPECT_NEAR(vec::cospi_poly(a), std::cos(3.14159265358979312 * a), 1e-9)
        << "a = " << a;
  }
}

TEST(VecMath, RoundMagicRoundsToNearestEven) {
  // The magic-number rounding at the heart of exp2_poly and the
  // Box-Muller angle reduction.
  const auto rint_magic = [](double x) {
    return (x + vec::kRoundMagic) - vec::kRoundMagic;
  };
  EXPECT_EQ(rint_magic(2.3), 2.0);
  EXPECT_EQ(rint_magic(2.7), 3.0);
  EXPECT_EQ(rint_magic(-2.3), -2.0);
  EXPECT_EQ(rint_magic(-2.7), -3.0);
  EXPECT_EQ(rint_magic(2.5), 2.0);   // ties to even
  EXPECT_EQ(rint_magic(3.5), 4.0);
  EXPECT_EQ(rint_magic(-2.5), -2.0);
  EXPECT_EQ(rint_magic(0.0), 0.0);
}

TEST(BatchRng, UniformBlockMoments) {
  const Rng base(2023);
  constexpr std::size_t kN = 1u << 18;
  std::vector<double> u(kN);
  BlockRng rng(base, 0);
  rng.uniform_block(u.data(), kN);

  double sum = 0.0;
  double sum2 = 0.0;
  double lo = 1.0;
  double hi = 0.0;
  for (const double x : u) {
    sum += x;
    sum2 += x * x;
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  const double mean = sum / kN;
  const double var = sum2 / kN - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.002);
  EXPECT_GE(lo, 0.0);
  EXPECT_LT(hi, 1.0);

  // Each lane's subsequence (stride 4) must itself be uniform — a broken
  // interleave would pass the aggregate test.
  for (std::size_t l = 0; l < 4; ++l) {
    double lane_sum = 0.0;
    for (std::size_t i = l; i < kN; i += 4) lane_sum += u[i];
    EXPECT_NEAR(lane_sum / (kN / 4), 0.5, 0.01) << "lane " << l;
  }
}

TEST(BatchRng, NormalPairBlockMoments) {
  const Rng base(77);
  constexpr std::size_t kN = 1u << 17;
  std::vector<double> z0(kN);
  std::vector<double> z1(kN);
  std::vector<double> scratch(2 * kN);
  BlockRng rng(base, 0);
  rng.normal_pair_block(z0.data(), z1.data(), scratch.data(), kN);

  for (const std::vector<double>* zs : {&z0, &z1}) {
    double sum = 0.0;
    double sum2 = 0.0;
    double sum3 = 0.0;
    double sum4 = 0.0;
    for (const double z : *zs) {
      sum += z;
      sum2 += z * z;
      sum3 += z * z * z;
      sum4 += z * z * z * z;
    }
    const double n = static_cast<double>(kN);
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sum2 / n, 1.0, 0.02);
    EXPECT_NEAR(sum3 / n, 0.0, 0.06);     // skewness
    EXPECT_NEAR(sum4 / n, 3.0, 0.15);     // kurtosis
  }

  // The two halves of each pair are uncorrelated.
  double cross = 0.0;
  for (std::size_t i = 0; i < kN; ++i) cross += z0[i] * z1[i];
  EXPECT_NEAR(cross / kN, 0.0, 0.02);
}

}  // namespace
}  // namespace mtd
