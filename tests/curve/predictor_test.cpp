#include "curve/predictor.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace hyperdrive::curve {
namespace {

/// Ground truth: a Weibull-style curve rising from 0.1 toward 0.8.
double truth(double x) { return 0.8 - 0.7 * std::exp(-std::pow(0.05 * x, 1.2)); }

std::vector<double> noisy_prefix(std::size_t n, double sigma, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    ys[i] = truth(static_cast<double>(i + 1)) + rng.normal(0.0, sigma);
  }
  return ys;
}

PredictorConfig small_config() {
  PredictorConfig config;
  // Keep the MCMC variant fast for tests: a 3-family ensemble with few
  // walkers. Production uses the full 11 families and 100x700.
  config.model_names = {"pow3", "weibull", "janoschek"};
  config.mcmc.nwalkers = 40;
  config.mcmc.nsamples = 250;
  config.mcmc.burn_in = 100;
  config.mcmc.thin = 5;
  config.lsq_samples = 150;
  config.seed = 0xabc;
  return config;
}

enum class Kind { Mcmc, Lsq, LastValue };

std::unique_ptr<CurvePredictor> make(Kind kind) {
  switch (kind) {
    case Kind::Mcmc: return make_mcmc_predictor(small_config());
    case Kind::Lsq: return make_lsq_predictor(small_config());
    case Kind::LastValue: return make_last_value_predictor(small_config());
  }
  return nullptr;
}

class PredictorContractTest : public ::testing::TestWithParam<Kind> {};

TEST_P(PredictorContractTest, ValidatesRequests) {
  const auto p = make(GetParam());
  const auto history = noisy_prefix(10, 0.01, 1);
  const std::vector<double> future = {20.0};
  EXPECT_THROW((void)p->predict({}, future, 120.0), std::invalid_argument);
  EXPECT_THROW((void)p->predict(history, {}, 120.0), std::invalid_argument);
  EXPECT_THROW((void)p->predict(history, std::vector<double>{5.0}, 120.0), std::invalid_argument);
  EXPECT_THROW((void)p->predict(history, future, 0.0), std::invalid_argument);
}

TEST_P(PredictorContractTest, DeterministicPerHistory) {
  const auto p = make(GetParam());
  const auto history = noisy_prefix(12, 0.01, 2);
  const std::vector<double> future = {20.0, 40.0};
  const auto a = p->predict(history, future, 120.0);
  const auto b = p->predict(history, future, 120.0);
  ASSERT_EQ(a.num_samples(), b.num_samples());
  for (std::size_t s = 0; s < a.samples().size(); ++s) {
    EXPECT_EQ(a.samples()[s], b.samples()[s]);
  }
}

TEST_P(PredictorContractTest, ProbAtLeastIsMonotoneInThreshold) {
  const auto p = make(GetParam());
  const auto history = noisy_prefix(15, 0.01, 3);
  const std::vector<double> future = {60.0};
  const auto pred = p->predict(history, future, 120.0);
  double prev = 1.0;
  for (double y = 0.0; y <= 1.0; y += 0.05) {
    const double prob = pred.prob_at_least(0, y);
    EXPECT_LE(prob, prev + 1e-12);
    prev = prob;
  }
}

TEST_P(PredictorContractTest, ProbReachedByIsMonotoneInEpoch) {
  const auto p = make(GetParam());
  const auto history = noisy_prefix(15, 0.01, 4);
  std::vector<double> future;
  for (double e = 16.0; e <= 116.0; e += 10.0) future.push_back(e);
  const auto pred = p->predict(history, future, 120.0);
  double prev = 0.0;
  for (std::size_t i = 0; i < future.size(); ++i) {
    const double prob = pred.prob_reached_by(i, 0.6);
    EXPECT_GE(prob, prev - 1e-12);
    prev = prob;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PredictorContractTest,
                         ::testing::Values(Kind::Mcmc, Kind::Lsq, Kind::LastValue),
                         [](const auto& info) {
                           switch (info.param) {
                             case Kind::Mcmc: return "mcmc";
                             case Kind::Lsq: return "lsq";
                             case Kind::LastValue: return "last_value";
                           }
                           return "?";
                         });

class ExtrapolationTest : public ::testing::TestWithParam<Kind> {};

TEST_P(ExtrapolationTest, MeanTracksGroundTruthLoosely) {
  const auto p = make(GetParam());
  const auto history = noisy_prefix(40, 0.008, 5);
  const std::vector<double> future = {80.0, 120.0};
  const auto pred = p->predict(history, future, 120.0);
  ASSERT_FALSE(pred.empty());
  EXPECT_NEAR(pred.mean_at(0), truth(80.0), 0.12);
  EXPECT_NEAR(pred.mean_at(1), truth(120.0), 0.15);
}

TEST_P(ExtrapolationTest, HighTargetHasLowProbability) {
  const auto p = make(GetParam());
  const auto history = noisy_prefix(40, 0.008, 6);
  const auto pred = p->predict(history, std::vector<double>{120.0}, 120.0);
  // Truth tops out near 0.78; reaching 0.95 should look very unlikely.
  EXPECT_LT(pred.prob_at_least(0, 0.95), 0.2);
}

INSTANTIATE_TEST_SUITE_P(CurveFitKinds, ExtrapolationTest,
                         ::testing::Values(Kind::Mcmc, Kind::Lsq),
                         [](const auto& info) {
                           return info.param == Kind::Mcmc ? "mcmc" : "lsq";
                         });

TEST(McmcPredictorTest, UncertaintyGrowsWithExtrapolationDistance) {
  const auto p = make_mcmc_predictor(small_config());
  const auto history = noisy_prefix(10, 0.01, 7);
  const auto pred = p->predict(history, std::vector<double>{12.0, 60.0, 120.0}, 120.0);
  ASSERT_FALSE(pred.empty());
  // PA (posterior stddev) at one epoch ahead should be <= far extrapolation.
  EXPECT_LE(pred.stddev_at(0), pred.stddev_at(2) + 0.02);
}

TEST(McmcPredictorTest, ConfidenceSharpensWithMoreHistory) {
  const auto p = make_mcmc_predictor(small_config());
  const auto short_pred = p->predict(noisy_prefix(8, 0.01, 8), std::vector<double>{120.0}, 120.0);
  const auto long_pred = p->predict(noisy_prefix(60, 0.01, 8), std::vector<double>{120.0}, 120.0);
  ASSERT_FALSE(short_pred.empty());
  ASSERT_FALSE(long_pred.empty());
  EXPECT_LT(long_pred.stddev_at(0), short_pred.stddev_at(0) + 0.02);
}

TEST(LastValuePredictorTest, ExtrapolatesFlat) {
  const auto p = make_last_value_predictor(small_config());
  const std::vector<double> history = {0.2, 0.3, 0.4, 0.5};
  const auto pred = p->predict(history, std::vector<double>{10.0, 50.0}, 120.0);
  // Means at both horizons should equal the last value (no trend).
  EXPECT_NEAR(pred.mean_at(0), 0.5, 0.05);
  EXPECT_NEAR(pred.mean_at(0), pred.mean_at(1), 1e-9);
}

TEST(CurvePredictionTest, RejectsRaggedSamples) {
  EXPECT_THROW(CurvePrediction({1.0, 2.0}, {0.1}, 1), std::invalid_argument);
}

TEST(CurvePredictionTest, EmptyPredictionIsSafe) {
  CurvePrediction pred({10.0}, {}, 0);
  EXPECT_TRUE(pred.empty());
  EXPECT_DOUBLE_EQ(pred.mean_at(0), 0.0);
  EXPECT_DOUBLE_EQ(pred.prob_at_least(0, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(pred.prob_reached_by(0, 0.5), 0.0);
}

TEST(CurvePredictionTest, StatisticsMatchHandComputation) {
  CurvePrediction pred({10.0, 20.0}, {0.2, 0.6, 0.4, 0.2, 0.6, 0.8}, 3);
  EXPECT_NEAR(pred.mean_at(0), 0.4, 1e-12);
  EXPECT_NEAR(pred.prob_at_least(0, 0.4), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(pred.prob_at_least(1, 0.5), 2.0 / 3.0, 1e-12);
  // reached-by uses the running max: curve 2 reaches 0.4 at idx 0 and stays.
  EXPECT_NEAR(pred.prob_reached_by(1, 0.4), 1.0, 1e-12);
  EXPECT_NEAR(pred.prob_reached_by(0, 0.5), 1.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace hyperdrive::curve
