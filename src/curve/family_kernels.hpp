// Family kernels — the 11 parametric learning-curve expressions of
// parametric_models.hpp as dispatch-free inline templates, shared by every
// fast path: BatchEvaluator's fused MCMC kernels and the least-squares
// fitter (curve/lsq_fit.hpp).
//
// Each kernel is the reference expression of parametric_models.cpp with the
// same operands in the same order. Only the source of some operands moves:
//
//   * x, log x and log(x+1) are bound once per epoch (EpochPoint),
//   * exp(b) for log_power and kappa^eta for hill3 are hoisted once per
//     parameter vector (family_hoist),
//
// so every value is bit-identical to ParametricModel::eval. parametric_
// models.cpp stays the scalar reference that predictor_equivalence_test and
// lsq_digest_test compare against. Families are identified by name; a model
// whose name is not in the table (a custom ParametricModel) has no kernel
// and is evaluated through its virtual eval.
#pragma once

#include <cmath>
#include <optional>
#include <string_view>
#include <type_traits>

namespace hyperdrive::curve {

enum class Family : unsigned char {
  kPow3,
  kPow4,
  kLogLogLinear,
  kLogPower,
  kVaporPressure,
  kHill3,
  kMmf,
  kExp4,
  kJanoschek,
  kWeibull,
  kIlog2,
};

/// Kernel of a built-in family name; nullopt for any other (custom) model.
[[nodiscard]] inline std::optional<Family> family_of(std::string_view name) noexcept {
  if (name == "pow3") return Family::kPow3;
  if (name == "pow4") return Family::kPow4;
  if (name == "log_log_linear") return Family::kLogLogLinear;
  if (name == "log_power") return Family::kLogPower;
  if (name == "vapor_pressure") return Family::kVaporPressure;
  if (name == "hill3") return Family::kHill3;
  if (name == "mmf") return Family::kMmf;
  if (name == "exp4") return Family::kExp4;
  if (name == "janoschek") return Family::kJanoschek;
  if (name == "weibull") return Family::kWeibull;
  if (name == "ilog2") return Family::kIlog2;
  return std::nullopt;
}

/// Per-epoch constants, computed with the reference path's own calls.
struct EpochPoint {
  double x = 0.0;
  double log_x = 0.0;
  double log_xp1 = 0.0;

  [[nodiscard]] static EpochPoint at(double x) noexcept {
    return {x, std::log(x), std::log(x + 1.0)};
  }
};

/// Per-parameter-vector constant of family F (0 for families without one).
/// `t` is anything indexable: a pointer into packed theta, or a strided
/// column view over struct-of-arrays walkers.
template <Family F, class Params>
[[nodiscard]] inline double family_hoist(const Params& t) noexcept {
  if constexpr (F == Family::kLogPower) {
    return std::exp(t[1]);
  } else if constexpr (F == Family::kHill3) {
    return std::pow(t[2], t[1]);
  } else {
    return 0.0;
  }
}

/// Family F at epoch `p` with parameters `t`; `hoist` = family_hoist<F>(t).
/// May return non-finite values, exactly where the reference does.
template <Family F, class Params>
[[nodiscard]] inline double family_eval(const EpochPoint& p, const Params& t,
                                        double hoist) noexcept {
  const double x = p.x;
  if constexpr (F == Family::kPow3) {
    return t[0] - t[1] * std::pow(x, -t[2]);
  } else if constexpr (F == Family::kPow4) {
    const double base = t[1] * x + t[2];
    return base <= 0.0 ? std::nan("") : t[0] - std::pow(base, -t[3]);
  } else if constexpr (F == Family::kLogLogLinear) {
    const double inner = t[0] * p.log_x + t[1];
    return inner <= 0.0 ? std::nan("") : std::log(inner);
  } else if constexpr (F == Family::kLogPower) {
    return t[0] / (1.0 + std::pow(x / hoist, t[2]));
  } else if constexpr (F == Family::kVaporPressure) {
    return std::exp(t[0] + t[1] / x + t[2] * p.log_x);
  } else if constexpr (F == Family::kHill3) {
    const double xe = std::pow(x, t[1]);
    return t[0] * xe / (hoist + xe);
  } else if constexpr (F == Family::kMmf) {
    return t[0] - (t[0] - t[1]) / (1.0 + std::pow(t[2] * x, t[3]));
  } else if constexpr (F == Family::kExp4) {
    return t[0] - std::exp(-t[1] * std::pow(x, t[3]) + t[2]);
  } else if constexpr (F == Family::kJanoschek) {
    return t[0] - (t[0] - t[1]) * std::exp(-t[2] * std::pow(x, t[3]));
  } else if constexpr (F == Family::kWeibull) {
    return t[0] - (t[0] - t[1]) * std::exp(-std::pow(t[2] * x, t[3]));
  } else {
    static_assert(F == Family::kIlog2);
    return t[0] - t[1] / p.log_xp1;
  }
}

template <Family F>
using FamilyTag = std::integral_constant<Family, F>;

/// Call fn(FamilyTag<F>{}) for the runtime `kind`: one switch, outside
/// whatever loop fn runs, so the loop body is a single inlined kernel.
template <class Fn>
decltype(auto) visit_family(Family kind, Fn&& fn) {
  switch (kind) {
    case Family::kPow3: return fn(FamilyTag<Family::kPow3>{});
    case Family::kPow4: return fn(FamilyTag<Family::kPow4>{});
    case Family::kLogLogLinear: return fn(FamilyTag<Family::kLogLogLinear>{});
    case Family::kLogPower: return fn(FamilyTag<Family::kLogPower>{});
    case Family::kVaporPressure: return fn(FamilyTag<Family::kVaporPressure>{});
    case Family::kHill3: return fn(FamilyTag<Family::kHill3>{});
    case Family::kMmf: return fn(FamilyTag<Family::kMmf>{});
    case Family::kExp4: return fn(FamilyTag<Family::kExp4>{});
    case Family::kJanoschek: return fn(FamilyTag<Family::kJanoschek>{});
    case Family::kWeibull: return fn(FamilyTag<Family::kWeibull>{});
    case Family::kIlog2: break;
  }
  return fn(FamilyTag<Family::kIlog2>{});
}

}  // namespace hyperdrive::curve
