// FNV-1a over the bit patterns of doubles: the key behind the predictors'
// per-history RNG streams and CachingPredictor's cache keys.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>

namespace hyperdrive::util {

inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

/// Continue FNV-1a state `h` over xs.size() and then each element's 8 bytes,
/// least significant byte first. Start a fresh hash from kFnvBasis.
[[nodiscard]] inline std::uint64_t hash_doubles(std::uint64_t h,
                                                std::span<const double> xs) noexcept {
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(xs.size());
  for (const double x : xs) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(x));
    std::memcpy(&bits, &x, sizeof(bits));
    mix(bits);
  }
  return h;
}

}  // namespace hyperdrive::util
