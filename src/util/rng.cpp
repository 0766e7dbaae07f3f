#include "util/rng.hpp"

#include <cmath>

namespace hyperdrive::util {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t root, std::uint64_t stream) noexcept {
  // Mix the stream id into the root with two splitmix rounds so that nearby
  // stream ids (0, 1, 2, ...) yield uncorrelated child seeds.
  std::uint64_t s = root ^ (0x6a09e667f3bcc909ULL + stream * 0x9e3779b97f4a7c15ULL);
  (void)splitmix64(s);
  return splitmix64(s);
}

Rng::Rng(std::uint64_t seed) noexcept : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
}

Rng::result_type Rng::next() noexcept {
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

double Rng::uniform() noexcept {
  // 53-bit mantissa trick: uniform in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  if (hi <= lo) return lo;
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % span;
  std::uint64_t x = next();
  while (x >= limit) x = next();
  return lo + static_cast<std::int64_t>(x % span);
}

double Rng::normal() noexcept {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  spare_normal_ = radius * std::sin(theta);
  has_spare_normal_ = true;
  return radius * std::cos(theta);
}

double Rng::normal(double mean, double stddev) noexcept { return mean + stddev * normal(); }

double Rng::lognormal(double mu, double sigma) noexcept { return std::exp(normal(mu, sigma)); }

double Rng::exponential(double lambda) noexcept {
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -std::log(u) / lambda;
}

bool Rng::bernoulli(double prob) noexcept {
  if (prob <= 0.0) return false;
  if (prob >= 1.0) return true;
  return uniform() < prob;
}

std::size_t Rng::categorical(const std::vector<double>& weights) noexcept {
  if (weights.empty()) return 0;
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  if (total <= 0.0) {
    return static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(weights.size()) - 1));
  }
  double x = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (x < w) return i;
    x -= w;
  }
  return weights.size() - 1;
}


}  // namespace hyperdrive::util
