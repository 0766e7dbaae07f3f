#include "curve/mcmc.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>

#include "util/stats.hpp"

namespace hyperdrive::curve {
namespace {

McmcOptions quick_options() {
  McmcOptions opts;
  opts.nwalkers = 32;
  opts.nsamples = 400;
  opts.burn_in = 100;
  opts.thin = 2;
  return opts;
}

/// A LogProbFn over a lambda taking one walker's coordinates.
template <class F>
class LambdaLogProb final : public LogProbFn {
 public:
  explicit LambdaLogProb(F fn) : fn_(std::move(fn)) {}

  [[nodiscard]] double log_prob(std::span<const double> x) override { return fn_(x); }

 private:
  F fn_;
};

/// Run the sampler on `walkers`, packed row-major with `dim` values each.
template <class F>
McmcResult sample(F log_prob, std::vector<double> walkers, std::size_t dim,
                  const McmcOptions& opts, util::Rng& rng) {
  LambdaLogProb<F> fn(std::move(log_prob));
  return run_ensemble_mcmc(fn, std::move(walkers), dim, opts, rng);
}

TEST(EnsembleMcmcTest, Samples1dGaussian) {
  auto log_prob = [](std::span<const double> x) { return -0.5 * x[0] * x[0]; };
  util::Rng rng(1);
  std::vector<double> walkers;
  for (int i = 0; i < 32; ++i) walkers.push_back(rng.normal(0.0, 0.5));
  const auto result = sample(log_prob, walkers, 1, quick_options(), rng);

  std::vector<double> xs;
  for (std::size_t i = 0; i < result.num_samples(); ++i) xs.push_back(result.sample(i)[0]);
  ASSERT_GT(xs.size(), 1000u);
  EXPECT_NEAR(util::mean(xs), 0.0, 0.1);
  EXPECT_NEAR(util::stddev(xs), 1.0, 0.15);
}

TEST(EnsembleMcmcTest, Samples2dGaussianWithDifferentScales) {
  auto log_prob = [](std::span<const double> x) {
    return -0.5 * (x[0] * x[0] + (x[1] - 3.0) * (x[1] - 3.0) / (0.5 * 0.5));
  };
  util::Rng rng(2);
  std::vector<double> walkers;
  for (int i = 0; i < 40; ++i) {
    walkers.push_back(rng.normal(0, 1));
    walkers.push_back(rng.normal(3, 1));
  }
  McmcOptions opts = quick_options();
  opts.nwalkers = 40;
  opts.nsamples = 600;
  const auto result = sample(log_prob, walkers, 2, opts, rng);

  std::vector<double> x0s, x1s;
  for (std::size_t i = 0; i < result.num_samples(); ++i) {
    x0s.push_back(result.sample(i)[0]);
    x1s.push_back(result.sample(i)[1]);
  }
  EXPECT_NEAR(util::mean(x0s), 0.0, 0.15);
  EXPECT_NEAR(util::mean(x1s), 3.0, 0.1);
  EXPECT_NEAR(util::stddev(x1s), 0.5, 0.12);
}

TEST(EnsembleMcmcTest, AcceptanceRateReasonable) {
  auto log_prob = [](std::span<const double> x) { return -0.5 * x[0] * x[0]; };
  util::Rng rng(3);
  std::vector<double> walkers;
  for (int i = 0; i < 32; ++i) walkers.push_back(rng.normal(0.0, 1.0));
  const auto result = sample(log_prob, walkers, 1, quick_options(), rng);
  EXPECT_GT(result.acceptance_rate, 0.2);
  EXPECT_LT(result.acceptance_rate, 0.95);
}

TEST(EnsembleMcmcTest, RespectsHardSupportBoundary) {
  // Uniform on [0, 1]: all samples must stay inside.
  auto log_prob = [](std::span<const double> x) {
    if (x[0] < 0.0 || x[0] > 1.0) return -std::numeric_limits<double>::infinity();
    return 0.0;
  };
  util::Rng rng(4);
  std::vector<double> walkers;
  for (int i = 0; i < 32; ++i) walkers.push_back(rng.uniform(0.3, 0.7));
  const auto result = sample(log_prob, walkers, 1, quick_options(), rng);
  for (const double x : result.samples) {
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
  }
  // And it should actually spread over the support.
  EXPECT_LT(util::min_of(result.samples), 0.15);
  EXPECT_GT(util::max_of(result.samples), 0.85);
}

TEST(EnsembleMcmcTest, InvalidStartsAreNudgedOntoValidOne) {
  auto log_prob = [](std::span<const double> x) {
    if (x[0] < 0.0) return -std::numeric_limits<double>::infinity();
    return -x[0];
  };
  util::Rng rng(5);
  std::vector<double> walkers;
  walkers.push_back(0.5);  // the only valid start
  for (int i = 1; i < 16; ++i) walkers.push_back(-1.0);
  const auto result = sample(log_prob, walkers, 1, quick_options(), rng);
  EXPECT_FALSE(result.samples.empty());
  for (const double x : result.samples) EXPECT_GE(x, 0.0);
}

TEST(EnsembleMcmcTest, ThrowsWhenNoValidStart) {
  auto log_prob = [](std::span<const double>) {
    return -std::numeric_limits<double>::infinity();
  };
  util::Rng rng(6);
  const std::vector<double> walkers(8, 0.0);
  EXPECT_THROW((void)sample(log_prob, walkers, 1, quick_options(), rng), std::runtime_error);
}

TEST(EnsembleMcmcTest, ValidatesWalkerSetup) {
  auto log_prob = [](std::span<const double>) { return 0.0; };
  util::Rng rng(7);
  const std::vector<double> too_few(2, 0.0);
  EXPECT_THROW((void)sample(log_prob, too_few, 1, quick_options(), rng),
               std::invalid_argument);
  // Five values cannot pack walkers of dimension 2.
  const std::vector<double> ragged = {0.0, 0.0, 0.0, 1.0, 0.0};
  EXPECT_THROW((void)sample(log_prob, ragged, 2, quick_options(), rng),
               std::invalid_argument);
}

TEST(EnsembleMcmcTest, RejectsOddWalkerCount) {
  // The documented Goodman–Weare constraint: even and >= max(4, 2 * dim).
  auto log_prob = [](std::span<const double>) { return 0.0; };
  util::Rng rng(7);
  const std::vector<double> odd(5, 0.0);
  EXPECT_THROW((void)sample(log_prob, odd, 1, quick_options(), rng), std::invalid_argument);
}

TEST(EnsembleMcmcTest, RejectsFewerWalkersThanTwiceDim) {
  // 4 walkers are fine in 1-2 dims but cannot span a 3-dim space with
  // stretch moves (the mcmc.hpp contract the old code under-enforced).
  auto log_prob = [](std::span<const double>) { return 0.0; };
  util::Rng rng(7);
  const std::vector<double> narrow(4 * 3, 0.0);
  EXPECT_THROW((void)sample(log_prob, narrow, 3, quick_options(), rng),
               std::invalid_argument);
  // 6 walkers satisfy the constraint at dim 3.
  const std::vector<double> enough(6 * 3, 0.0);
  McmcOptions opts = quick_options();
  opts.nsamples = 20;
  opts.burn_in = 5;
  EXPECT_NO_THROW((void)sample(log_prob, enough, 3, opts, rng));
}

TEST(EnsembleMcmcTest, SampleCountMatchesSchedule) {
  auto log_prob = [](std::span<const double> x) { return -0.5 * x[0] * x[0]; };
  util::Rng rng(8);
  std::vector<double> walkers(16);
  for (double& w : walkers) w = rng.normal(0.0, 1.0);
  McmcOptions opts;
  opts.nwalkers = 16;
  opts.nsamples = 100;
  opts.burn_in = 40;
  opts.thin = 10;
  const auto result = sample(log_prob, walkers, 1, opts, rng);
  // Kept steps: ceil((100-40)/10) = 6 -> 6 * 16 walkers.
  EXPECT_EQ(result.num_samples(), 6u * 16u);
  EXPECT_EQ(result.samples.size(), 6u * 16u * result.dim);
  EXPECT_EQ(result.final_walkers.size(), 16u * result.dim);
}

TEST(EnsembleMcmcTest, DeterministicGivenSeed) {
  auto log_prob = [](std::span<const double> x) { return -0.5 * x[0] * x[0]; };
  auto run = [&] {
    util::Rng rng(99);
    std::vector<double> walkers;
    for (int i = 0; i < 16; ++i) walkers.push_back(rng.normal(0.0, 1.0));
    McmcOptions opts = quick_options();
    opts.nwalkers = 16;
    return sample(log_prob, walkers, 1, opts, rng);
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i], b.samples[i]);
  }
}

}  // namespace
}  // namespace hyperdrive::curve
