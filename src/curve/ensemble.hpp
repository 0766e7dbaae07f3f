// Weighted ensemble of parametric learning-curve families plus Gaussian
// observation noise — the probabilistic model of Domhan et al. [11] that POP
// uses to compute P(y(m) >= y_target | y(1:n)) (paper Eq. 1).
//
// The combined latent curve is
//     f(x; theta) = sum_k w~_k * f_k(x; theta_k),   w~_k = w_k / sum_j w_j
// and observations are y_i ~ Normal(f(x_i), sigma^2). The joint parameter
// vector packs [theta_1 .. theta_K, w_1 .. w_K, log_sigma].
//
// Priors (uniform boxes, matching the reference implementation in spirit):
//   * each theta_k within its family's bounds box,
//   * w_k in [0, 1] with sum > 0 (weights are normalized inside eval),
//   * log_sigma in [log 1e-4, log 0.5],
//   * the latent curve must be finite and inside [-0.05, 1.10] at every
//     observed epoch and at the prediction horizon,
//   * non-collapsing: f(horizon) must not fall more than kPriorMaxDecrease
//     below the last observation — the Domhan prior that curves do not
//     regress, relaxed enough for noisy RL rewards.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "curve/parametric_models.hpp"

namespace hyperdrive::curve {

// The prior's support, shared by the scalar path, BatchEvaluator's fused
// kernels and the LSQ predictor's sample clamp.
inline constexpr double kPriorLogSigmaLo = -9.2103403719761836;  // log(1e-4)
inline constexpr double kPriorLogSigmaHi = -0.6931471805599453;  // log(0.5)
inline constexpr double kPriorYLo = -0.05;  ///< latent curve lower sanity bound
inline constexpr double kPriorYHi = 1.10;   ///< latent curve upper sanity bound
/// Allowed drop from the last observation to the horizon.
inline constexpr double kPriorMaxDecrease = 0.10;

class CurveEnsemble {
 public:
  /// Takes ownership of the families. horizon is the largest epoch index the
  /// model will ever be asked to predict (used by the prior checks).
  CurveEnsemble(std::vector<std::unique_ptr<ParametricModel>> models, double horizon);

  [[nodiscard]] std::size_t num_models() const noexcept { return models_.size(); }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] double horizon() const noexcept { return horizon_; }
  [[nodiscard]] const ParametricModel& model(std::size_t k) const { return *models_.at(k); }

  /// Offset of family k's parameter block inside the packed vector.
  [[nodiscard]] std::size_t param_offset(std::size_t k) const { return offsets_.at(k); }
  /// Offset of the weights block.
  [[nodiscard]] std::size_t weight_offset() const noexcept { return weight_offset_; }
  /// Offset of log_sigma (== dim() - 1).
  [[nodiscard]] std::size_t sigma_offset() const noexcept { return dim_ - 1; }

  /// Latent ensemble curve value at epoch x (x >= 1) for packed theta.
  /// Returns NaN if any active component evaluates non-finite.
  [[nodiscard]] double eval(double x, std::span<const double> theta) const noexcept;

  /// Log prior density (0 inside the support, -inf outside). ys is the
  /// observed prefix used by the shape constraints.
  [[nodiscard]] double log_prior(std::span<const double> theta,
                                 std::span<const double> ys) const noexcept;

  /// Gaussian log likelihood of the observed prefix (ys[i] at epoch i+1).
  [[nodiscard]] double log_likelihood(std::span<const double> theta,
                                      std::span<const double> ys) const noexcept;

  /// log_prior + log_likelihood (−inf outside the support).
  [[nodiscard]] double log_posterior(std::span<const double> theta,
                                     std::span<const double> ys) const noexcept;

  /// Packed starting point: per-family least-squares fits (curve::
  /// fit_families, the LSQ predictor's fitter), weights proportional to each
  /// family's inverse MSE, sigma from the best fit's residuals.
  /// Deterministic given ys. Throws std::invalid_argument for a family with
  /// more than kNelderMeadMaxDim parameters.
  [[nodiscard]] std::vector<double> initial_theta(std::span<const double> ys) const;

  /// Jitter a packed theta into a valid random walker start near `center`.
  /// Falls back to re-sampling out-of-bounds coordinates uniformly.
  [[nodiscard]] std::vector<double> jitter(std::span<const double> center, util::Rng& rng,
                                           double scale = 0.05) const;

 private:
  std::vector<std::unique_ptr<ParametricModel>> models_;
  std::vector<std::size_t> offsets_;
  std::size_t weight_offset_ = 0;
  std::size_t dim_ = 0;
  double horizon_ = 0.0;
};

}  // namespace hyperdrive::curve
