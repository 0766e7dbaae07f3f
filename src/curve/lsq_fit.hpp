// Least-squares fit of one parametric family to an observed learning-curve
// prefix — the one fitter behind LsqPredictor::predict (its per-family
// fits) and CurveEnsemble::initial_theta (the MCMC walkers' center).
//
// The objective is the mean squared residual over epochs 1..n, with each
// Nelder–Mead proposal clamped into the family's bounds box so the optimizer
// cannot leave the prior support; the reported parameters are clamped the
// same way. Built-in families evaluate through the shared kernels
// (curve/family_kernels.hpp) over per-thread epoch tables; a custom model
// (kind == nullopt) evaluates through ParametricModel::eval. Both are
// bit-identical to evaluating the model directly, because the kernels reuse
// the reference expressions. A fit allocates only the model's initial_guess
// vector (and, per thread, an epoch table that grows to the longest prefix
// seen).
#pragma once

#include <array>
#include <limits>
#include <optional>
#include <span>

#include "curve/family_kernels.hpp"
#include "curve/nelder_mead.hpp"
#include "curve/parametric_models.hpp"

namespace hyperdrive::curve {

struct FamilyFit {
  /// Fitted parameters in params[0..model.num_params()), inside the bounds.
  std::array<double, kNelderMeadMaxDim> params{};
  /// Mean squared residual at params (+inf when every proposal was
  /// non-finite somewhere on the prefix).
  double mse = std::numeric_limits<double>::infinity();
};

/// Fit `model` (whose table kernel is `kind`, or nullopt to evaluate through
/// the model) to ys[i] at epoch i+1, starting from model.initial_guess(ys).
/// Throws std::invalid_argument for models with more than
/// kNelderMeadMaxDim parameters.
[[nodiscard]] FamilyFit fit_family(const ParametricModel& model, std::optional<Family> kind,
                                   std::span<const double> ys);

}  // namespace hyperdrive::curve
