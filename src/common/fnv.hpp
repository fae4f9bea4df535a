// FNV-1a (64-bit): network fingerprints and event-stream digests fold
// bytes through it, and their committed values pin it. The trace store
// checksums with XXH64 instead (common/xxh64.hpp).
#pragma once

#include <cstdint>
#include <string_view>

namespace mtd {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// FNV-1a over `bytes`, continuing from the running hash `h` (the offset
/// basis starts a fresh hash).
[[nodiscard]] constexpr std::uint64_t fnv1a64(
    std::string_view bytes, std::uint64_t h = kFnvOffsetBasis) noexcept {
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// Folds the eight bytes of `v`, least significant first, into `h`.
[[nodiscard]] constexpr std::uint64_t fnv1a64_word(std::uint64_t h,
                                                   std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace mtd
