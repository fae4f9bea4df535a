// XXH64, the trace store's checksum: page payloads and manifest log
// records (DESIGN.md section 12). It reads the input as little-endian
// 64-bit words through four independent accumulators, so a 4 KiB page
// costs about a multiply per eight bytes instead of FNV-1a's one per byte.
// The result matches the reference implementation (xxhash.h, XXH64) on
// every host; tests/test_store.cpp pins the published vectors.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace mtd {

namespace xxh64_detail {

inline constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
inline constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
inline constexpr std::uint64_t kPrime3 = 0x165667b19e3779f9ULL;
inline constexpr std::uint64_t kPrime4 = 0x85ebca77c2b2ae63ULL;
inline constexpr std::uint64_t kPrime5 = 0x27d4eb2f165667c5ULL;

/// The little-endian unsigned integer of type T at `p`.
template <typename T>
inline T load_le(const char* p) noexcept {
  T v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native != std::endian::little) {
    T swapped = 0;
    for (std::size_t i = 0; i < sizeof v; ++i) {
      swapped = static_cast<T>((swapped << 8) | ((v >> (8 * i)) & 0xff));
    }
    v = swapped;
  }
  return v;
}

inline std::uint64_t round(std::uint64_t acc, std::uint64_t input) noexcept {
  acc += input * kPrime2;
  return std::rotl(acc, 31) * kPrime1;
}

inline std::uint64_t merge_round(std::uint64_t acc,
                                 std::uint64_t v) noexcept {
  acc ^= round(0, v);
  return acc * kPrime1 + kPrime4;
}

}  // namespace xxh64_detail

/// XXH64 of `bytes` with `seed`.
[[nodiscard]] inline std::uint64_t xxh64(std::string_view bytes,
                                         std::uint64_t seed = 0) noexcept {
  using namespace xxh64_detail;
  const char* p = bytes.data();
  const char* const end = p + bytes.size();
  std::uint64_t h;
  if (bytes.size() >= 32) {
    std::uint64_t v1 = seed + kPrime1 + kPrime2;
    std::uint64_t v2 = seed + kPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kPrime1;
    for (const char* const limit = end - 32; p <= limit; p += 32) {
      v1 = round(v1, load_le<std::uint64_t>(p));
      v2 = round(v2, load_le<std::uint64_t>(p + 8));
      v3 = round(v3, load_le<std::uint64_t>(p + 16));
      v4 = round(v4, load_le<std::uint64_t>(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = merge_round(h, v1);
    h = merge_round(h, v2);
    h = merge_round(h, v3);
    h = merge_round(h, v4);
  } else {
    h = seed + kPrime5;
  }
  h += bytes.size();
  for (; end - p >= 8; p += 8) {
    h ^= round(0, load_le<std::uint64_t>(p));
    h = std::rotl(h, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h ^= std::uint64_t{load_le<std::uint32_t>(p)} * kPrime1;
    h = std::rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= static_cast<std::uint8_t>(*p) * kPrime5;
    h = std::rotl(h, 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace mtd
