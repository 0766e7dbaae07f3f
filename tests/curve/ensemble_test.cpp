#include "curve/ensemble.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace hyperdrive::curve {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

std::vector<double> increasing_prefix() {
  return {0.15, 0.25, 0.33, 0.40, 0.46, 0.50, 0.54, 0.57, 0.59, 0.61};
}

CurveEnsemble make_small_ensemble() {
  return CurveEnsemble(make_models({"pow3", "weibull"}), /*horizon=*/120.0);
}

TEST(CurveEnsembleTest, DimensionPacksParamsWeightsSigma) {
  const auto e = make_small_ensemble();
  // pow3 has 3 params, weibull 4, + 2 weights + log_sigma.
  EXPECT_EQ(e.dim(), 3u + 4u + 2u + 1u);
  EXPECT_EQ(e.param_offset(0), 0u);
  EXPECT_EQ(e.param_offset(1), 3u);
  EXPECT_EQ(e.weight_offset(), 7u);
  EXPECT_EQ(e.sigma_offset(), 9u);
}

TEST(CurveEnsembleTest, ConstructionValidation) {
  EXPECT_THROW(CurveEnsemble({}, 120.0), std::invalid_argument);
  EXPECT_THROW(CurveEnsemble(make_models({"pow3"}), 0.5), std::invalid_argument);
}

TEST(CurveEnsembleTest, EvalIsNormalizedWeightedMix) {
  const auto e = make_small_ensemble();
  const auto models = make_models({"pow3", "weibull"});
  std::vector<double> theta(e.dim(), 0.0);
  const std::vector<double> pow3 = {0.8, 0.6, 0.5};
  const std::vector<double> weibull = {0.7, 0.1, 0.05, 1.0};
  std::copy(pow3.begin(), pow3.end(), theta.begin());
  std::copy(weibull.begin(), weibull.end(), theta.begin() + 3);
  theta[e.weight_offset()] = 0.75;
  theta[e.weight_offset() + 1] = 0.25;
  theta[e.sigma_offset()] = std::log(0.05);

  const double x = 20.0;
  const double expected =
      0.75 * models[0]->eval(x, pow3) + 0.25 * models[1]->eval(x, weibull);
  EXPECT_NEAR(e.eval(x, theta), expected, 1e-12);
}

TEST(CurveEnsembleTest, ZeroWeightModelIgnored) {
  const auto e = make_small_ensemble();
  std::vector<double> theta(e.dim(), 0.0);
  // weibull params deliberately garbage; its weight is zero.
  const std::vector<double> pow3 = {0.8, 0.6, 0.5};
  std::copy(pow3.begin(), pow3.end(), theta.begin());
  theta[e.weight_offset()] = 1.0;
  theta[e.weight_offset() + 1] = 0.0;
  theta[e.sigma_offset()] = std::log(0.05);
  const auto models = make_models({"pow3"});
  EXPECT_NEAR(e.eval(10.0, theta), models[0]->eval(10.0, pow3), 1e-12);
}

TEST(CurveEnsembleTest, AllZeroWeightsGiveNan) {
  const auto e = make_small_ensemble();
  std::vector<double> theta(e.dim(), 0.0);
  EXPECT_TRUE(std::isnan(e.eval(10.0, theta)));
}

class EnsemblePriorTest : public ::testing::Test {
 protected:
  CurveEnsemble e_ = make_small_ensemble();
  std::vector<double> ys_ = increasing_prefix();
  std::vector<double> valid_theta_ = e_.initial_theta(ys_);
};

TEST_F(EnsemblePriorTest, InitialThetaIsInsideSupport) {
  EXPECT_EQ(e_.log_prior(valid_theta_, ys_), 0.0);
  EXPECT_TRUE(std::isfinite(e_.log_posterior(valid_theta_, ys_)));
}

TEST_F(EnsemblePriorTest, RejectsWrongDimension) {
  std::vector<double> theta(valid_theta_.begin(), valid_theta_.end() - 1);
  EXPECT_EQ(e_.log_prior(theta, ys_), kNegInf);
}

TEST_F(EnsemblePriorTest, RejectsOutOfBoundsModelParam) {
  auto theta = valid_theta_;
  theta[0] = 100.0;  // far outside pow3's c bound
  EXPECT_EQ(e_.log_prior(theta, ys_), kNegInf);
}

TEST_F(EnsemblePriorTest, RejectsNegativeWeight) {
  auto theta = valid_theta_;
  theta[e_.weight_offset()] = -0.1;
  EXPECT_EQ(e_.log_prior(theta, ys_), kNegInf);
}

TEST_F(EnsemblePriorTest, RejectsAllZeroWeights) {
  auto theta = valid_theta_;
  theta[e_.weight_offset()] = 0.0;
  theta[e_.weight_offset() + 1] = 0.0;
  EXPECT_EQ(e_.log_prior(theta, ys_), kNegInf);
}

TEST_F(EnsemblePriorTest, RejectsSigmaOutsideRange) {
  auto theta = valid_theta_;
  theta[e_.sigma_offset()] = std::log(10.0);
  EXPECT_EQ(e_.log_prior(theta, ys_), kNegInf);
  theta[e_.sigma_offset()] = std::log(1e-9);
  EXPECT_EQ(e_.log_prior(theta, ys_), kNegInf);
}

TEST_F(EnsemblePriorTest, LikelihoodMatchesGaussianByHand) {
  // Single-model ensemble with known parameters: check the Gaussian formula.
  CurveEnsemble e(make_models({"pow3"}), 120.0);
  const std::vector<double> ys = {0.2, 0.3};
  std::vector<double> theta(e.dim());
  theta[0] = 0.5;  // c
  theta[1] = 0.3;  // a
  theta[2] = 1.0;  // alpha
  theta[e.weight_offset()] = 1.0;
  const double sigma = 0.1;
  theta[e.sigma_offset()] = std::log(sigma);

  const auto models = make_models({"pow3"});
  double expected = 0.0;
  for (std::size_t i = 0; i < ys.size(); ++i) {
    const double f =
        models[0]->eval(static_cast<double>(i + 1), std::vector<double>{0.5, 0.3, 1.0});
    const double r = ys[i] - f;
    expected += -0.5 * std::log(2.0 * M_PI * sigma * sigma) - 0.5 * r * r / (sigma * sigma);
  }
  EXPECT_NEAR(e.log_likelihood(theta, ys), expected, 1e-9);
}

TEST_F(EnsemblePriorTest, NonCollapsingPriorRejectsCrashPredictions) {
  // Force the ensemble to predict far below the last observation.
  CurveEnsemble e(make_models({"ilog2"}), 120.0);
  const std::vector<double> ys = {0.5, 0.6, 0.7};
  std::vector<double> theta(e.dim());
  theta[0] = 0.2;  // c: asymptote way below the last observation (0.7)
  theta[1] = 0.0;  // a
  theta[e.weight_offset()] = 1.0;
  theta[e.sigma_offset()] = std::log(0.05);
  EXPECT_EQ(e.log_prior(theta, ys), kNegInf);
}

TEST_F(EnsemblePriorTest, JitterStaysInSupport) {
  util::Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const auto jittered = e_.jitter(valid_theta_, rng);
    // Components must respect their boxes (curve-shape priors may still
    // reject, but the box constraints are guaranteed).
    for (std::size_t k = 0; k < e_.num_models(); ++k) {
      const auto& box = e_.model(k).bounds();
      for (std::size_t d = 0; d < box.size(); ++d) {
        const double v = jittered[e_.param_offset(k) + d];
        EXPECT_GE(v, box[d].lo);
        EXPECT_LE(v, box[d].hi);
      }
    }
    EXPECT_GE(jittered[e_.sigma_offset()], kPriorLogSigmaLo);
    EXPECT_LE(jittered[e_.sigma_offset()], kPriorLogSigmaHi);
  }
}

TEST_F(EnsemblePriorTest, InitialThetaFitsPrefixWell) {
  // The least-squares initialization should track the observed prefix.
  for (std::size_t i = 0; i < ys_.size(); ++i) {
    const double f = e_.eval(static_cast<double>(i + 1), valid_theta_);
    EXPECT_NEAR(f, ys_[i], 0.12);
  }
}

}  // namespace
}  // namespace hyperdrive::curve
