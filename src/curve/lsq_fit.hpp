// Least-squares fits of parametric families to an observed learning-curve
// prefix — the one fitter behind LsqPredictor::predict (its per-family
// fits) and CurveEnsemble::initial_theta (the MCMC walkers' center).
//
// Each family's objective is the mean squared residual over epochs 1..n,
// with each Nelder–Mead proposal clamped into the family's bounds box so the
// optimizer cannot leave the prior support; the reported parameters are
// clamped the same way. Built-in families evaluate through the shared kernels
// (curve/family_kernels.hpp) over per-thread epoch tables; a custom model
// (no table kernel) evaluates through ParametricModel::eval. Both are
// bit-identical to evaluating the model directly, because the kernels reuse
// the reference expressions. A fit allocates only the model's initial_guess
// vector (and, per thread, an epoch table that grows to the longest prefix
// seen).
#pragma once

#include <array>
#include <limits>
#include <memory>
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

/// Fit every model k to ys[i] at epoch i+1, starting from
/// models[k]->initial_guess(ys), into fits[k]. The fits run on the cores
/// nothing else is using (util::fan_out); each writes only its own slot and
/// none depends on the thread that runs it, so the fits are those of a
/// serial loop, bit for bit. Throws std::invalid_argument unless
/// fits.size() == models.size(), and for a model with more than
/// kNelderMeadMaxDim parameters.
void fit_families(std::span<const std::unique_ptr<ParametricModel>> models,
                  std::span<const double> ys, std::span<FamilyFit> fits);

}  // namespace hyperdrive::curve
