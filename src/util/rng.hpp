// Deterministic random number generation for reproducible experiments.
//
// All stochastic components in HyperDrive (workload synthesis, MCMC inference,
// policy tie-breaking, latency models) draw from an explicitly seeded Rng so
// that a whole experiment — and therefore every figure in EXPERIMENTS.md — is
// bit-reproducible given the seed printed in its header.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

namespace hyperdrive::util {

/// Complete generator state, exposed for coordinator checkpoints (DESIGN.md
/// §12). Restoring it resumes the exact deviate sequence — including the
/// cached Box-Muller spare, which an in-flight normal() may have left behind.
struct RngState {
  std::array<std::uint64_t, 4> state{};
  std::uint64_t seed = 0;
  double spare_normal = 0.0;
  bool has_spare_normal = false;
};

/// SplitMix64: used to expand a single 64-bit seed into a full generator
/// state and to derive independent child seeds from a parent seed + stream id.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Derive a child seed that is statistically independent of other stream ids.
/// Used to give every job / walker / model its own stream from one root seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t root, std::uint64_t stream) noexcept;

/// xoshiro256** 1.0 — fast, high-quality 64-bit PRNG (Blackman & Vigna).
/// Satisfies (most of) UniformRandomBitGenerator so it can also be handed to
/// <random> distributions, though the members below avoid that dependency.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept { return next(); }
  result_type next() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;
  /// Standard normal via Box-Muller (cached spare deviate).
  double normal() noexcept;
  double normal(double mean, double stddev) noexcept;
  /// Log-normal with the given parameters of the underlying normal.
  double lognormal(double mu, double sigma) noexcept;
  /// Exponential with rate lambda (> 0).
  double exponential(double lambda) noexcept;
  /// Bernoulli trial with success probability prob (clamped to [0,1]).
  bool bernoulli(double prob) noexcept;
  /// Sample an index in [0, weights.size()) proportional to weights.
  /// Non-positive weights are treated as zero; if all are zero, uniform.
  std::size_t categorical(const std::vector<double>& weights) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Capture / restore the full state (checkpoint support).
  [[nodiscard]] RngState state() const noexcept {
    return RngState{state_, seed_, spare_normal_, has_spare_normal_};
  }
  void restore(const RngState& s) noexcept {
    state_ = s.state;
    seed_ = s.seed;
    spare_normal_ = s.spare_normal;
    has_spare_normal_ = s.has_spare_normal;
  }

 private:
  std::array<std::uint64_t, 4> state_{};
  std::uint64_t seed_ = 0;
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace hyperdrive::util
