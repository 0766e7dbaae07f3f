#include "curve/nelder_mead.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <span>

namespace hyperdrive::curve {
namespace {

TEST(NelderMeadTest, MinimizesShiftedQuadratic) {
  auto fn = [](std::span<const double> x) {
    return (x[0] - 3.0) * (x[0] - 3.0) + (x[1] + 1.0) * (x[1] + 1.0);
  };
  const auto r = nelder_mead(fn, std::array{0.0, 0.0});
  EXPECT_NEAR(r.x[0], 3.0, 1e-3);
  EXPECT_NEAR(r.x[1], -1.0, 1e-3);
  EXPECT_NEAR(r.fx, 0.0, 1e-6);
}

TEST(NelderMeadTest, HandlesRosenbrockReasonably) {
  auto fn = [](std::span<const double> x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
  NelderMeadOptions opts;
  opts.max_iterations = 2000;
  const auto r = nelder_mead(fn, std::array{-1.0, 1.0}, opts);
  EXPECT_LT(r.fx, 1e-2);
}

TEST(NelderMeadTest, OneDimensional) {
  auto fn = [](std::span<const double> x) { return std::cosh(x[0] - 2.0); };
  const auto r = nelder_mead(fn, std::array{10.0});
  EXPECT_NEAR(r.x[0], 2.0, 1e-2);
}

TEST(NelderMeadTest, TreatsNonFiniteAsInfinity) {
  // Objective undefined for x < 0; optimum at x = 1.
  auto fn = [](std::span<const double> x) {
    if (x[0] < 0.0) return std::nan("");
    return (std::sqrt(x[0]) - 1.0) * (std::sqrt(x[0]) - 1.0);
  };
  const auto r = nelder_mead(fn, std::array{4.0});
  EXPECT_NEAR(r.x[0], 1.0, 1e-2);
}

TEST(NelderMeadTest, EmptyInputReturnsImmediately) {
  auto fn = [](std::span<const double>) { return 5.0; };
  const auto r = nelder_mead(fn, {});
  EXPECT_EQ(r.dim, 0u);
  EXPECT_DOUBLE_EQ(r.fx, 5.0);
}

TEST(NelderMeadTest, RespectsIterationBudget) {
  auto fn = [](std::span<const double> x) { return x[0] * x[0]; };
  NelderMeadOptions opts;
  opts.max_iterations = 5;
  const auto r = nelder_mead(fn, std::array{100.0}, opts);
  EXPECT_LE(r.iterations, 5u);
}

TEST(NelderMeadTest, StartingAtOptimumStaysThere) {
  auto fn = [](std::span<const double> x) { return x[0] * x[0] + x[1] * x[1]; };
  const auto r = nelder_mead(fn, std::array{0.0, 0.0});
  EXPECT_NEAR(r.fx, 0.0, 1e-9);
}

TEST(NelderMeadTest, NeverReturnsWorseThanStart) {
  auto fn = [](std::span<const double> x) {
    return std::sin(x[0] * 5.0) + 0.1 * x[0] * x[0];
  };
  const std::array x0 = {1.3};
  const auto r = nelder_mead(fn, x0);
  EXPECT_LE(r.fx, fn(x0) + 1e-12);
}

}  // namespace
}  // namespace hyperdrive::curve
