// Derivative-free simplex minimizer (Nelder & Mead 1965), used to fit each
// parametric curve family to an observed learning-curve prefix by least
// squares (curve/lsq_fit.hpp): the LSQ predictor's fits and the MCMC
// walkers' starting point.
//
// A header-only template over the objective type: the objective is called
// directly (no type erasure) with a span over a stack vertex, and the simplex
// lives in fixed-size stack arrays, so a fit allocates nothing.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <stdexcept>

namespace hyperdrive::curve {

/// Largest problem dimension nelder_mead accepts (the built-in curve
/// families have at most 4 parameters).
inline constexpr std::size_t kNelderMeadMaxDim = 8;

/// Relative simplex spread around the start.
inline constexpr double kNelderMeadInitialStep = 0.1;
/// Stop when the simplex's f-spread falls below this.
inline constexpr double kNelderMeadTolerance = 1e-8;

struct NelderMeadOptions {
  std::size_t max_iterations = 400;
};

struct NelderMeadResult {
  std::array<double, kNelderMeadMaxDim> x{};  ///< minimizer in x[0..dim)
  std::size_t dim = 0;
  double fx = 0.0;
  std::size_t iterations = 0;
};

/// Minimize fn over R^n starting at x0 (n = x0.size() <= kNelderMeadMaxDim,
/// else std::invalid_argument). fn is called as fn(std::span<const double>)
/// and may return non-finite values; those are treated as +infinity
/// (rejected).
template <class Fn>
[[nodiscard]] NelderMeadResult nelder_mead(Fn&& fn, std::span<const double> x0,
                                           const NelderMeadOptions& opts = {}) {
  constexpr std::size_t kMax = kNelderMeadMaxDim;
  using Point = std::array<double, kMax>;
  const std::size_t n = x0.size();
  if (n > kMax) throw std::invalid_argument("nelder_mead: dimension above kNelderMeadMaxDim");
  auto safe_eval = [&fn, n](const Point& v) {
    const double f = fn(std::span<const double>(v.data(), n));
    return std::isfinite(f) ? f : std::numeric_limits<double>::infinity();
  };

  NelderMeadResult result;
  result.dim = n;
  if (n == 0) {
    result.fx = safe_eval(result.x);
    return result;
  }

  // Standard reflection/expansion/contraction/shrink coefficients.
  constexpr double kAlpha = 1.0, kGamma = 2.0, kRho = 0.5, kSigma = 0.5;

  std::array<Point, kMax + 1> simplex{};
  for (std::size_t i = 0; i <= n; ++i) std::copy(x0.begin(), x0.end(), simplex[i].begin());
  for (std::size_t i = 0; i < n; ++i) {
    double step = kNelderMeadInitialStep * std::fabs(x0[i]);
    if (step < 1e-4) step = kNelderMeadInitialStep;
    simplex[i + 1][i] += step;
  }
  std::array<double, kMax + 1> fvals{};
  for (std::size_t i = 0; i <= n; ++i) fvals[i] = safe_eval(simplex[i]);

  std::array<std::size_t, kMax + 1> order{};
  Point centroid{}, candidate{}, expanded{};

  std::size_t iter = 0;
  for (; iter < opts.max_iterations; ++iter) {
    for (std::size_t i = 0; i <= n; ++i) order[i] = i;
    std::sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(n + 1),
              [&](std::size_t a, std::size_t b) { return fvals[a] < fvals[b]; });

    const double best = fvals[order[0]];
    const double worst = fvals[order[n]];
    if (std::isfinite(worst) && worst - best < kNelderMeadTolerance) break;

    // Centroid of all but the worst vertex.
    std::fill_n(centroid.begin(), n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t d = 0; d < n; ++d) centroid[d] += simplex[order[i]][d];
    }
    for (std::size_t d = 0; d < n; ++d) centroid[d] /= static_cast<double>(n);

    Point& worst_vertex = simplex[order[n]];
    auto point_along = [&](double coef, Point& out) {
      for (std::size_t d = 0; d < n; ++d) {
        out[d] = centroid[d] + coef * (centroid[d] - worst_vertex[d]);
      }
    };
    auto replace_worst = [&](const Point& v, double fv) {
      std::copy_n(v.begin(), n, worst_vertex.begin());
      fvals[order[n]] = fv;
    };

    point_along(kAlpha, candidate);
    const double f_reflect = safe_eval(candidate);

    if (f_reflect < fvals[order[0]]) {
      point_along(kGamma, expanded);
      const double f_expand = safe_eval(expanded);
      if (f_expand < f_reflect) {
        replace_worst(expanded, f_expand);
      } else {
        replace_worst(candidate, f_reflect);
      }
      continue;
    }
    if (f_reflect < fvals[order[n - 1]]) {
      replace_worst(candidate, f_reflect);
      continue;
    }

    point_along(-kRho, candidate);  // inside contraction
    const double f_contract = safe_eval(candidate);
    if (f_contract < fvals[order[n]]) {
      replace_worst(candidate, f_contract);
      continue;
    }

    // Shrink toward the best vertex.
    const Point& best_vertex = simplex[order[0]];
    for (std::size_t i = 1; i <= n; ++i) {
      Point& v = simplex[order[i]];
      for (std::size_t d = 0; d < n; ++d) {
        v[d] = best_vertex[d] + kSigma * (v[d] - best_vertex[d]);
      }
      fvals[order[i]] = safe_eval(v);
    }
  }

  std::size_t best_idx = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    if (fvals[i] < fvals[best_idx]) best_idx = i;
  }
  std::copy_n(simplex[best_idx].begin(), n, result.x.begin());
  result.fx = fvals[best_idx];
  result.iterations = iter;
  return result;
}

}  // namespace hyperdrive::curve
