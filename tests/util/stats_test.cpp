#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <tuple>

#include "util/rng.hpp"

namespace hyperdrive::util {
namespace {

TEST(MeanTest, Basics) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({5.0}), 5.0);
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(VarianceTest, SampleVariance) {
  EXPECT_DOUBLE_EQ(variance({}), 0.0);
  EXPECT_DOUBLE_EQ(variance({3.0}), 0.0);
  // var of {2, 4, 4, 4, 5, 5, 7, 9} with n-1 = 32/7
  EXPECT_NEAR(variance({2, 4, 4, 4, 5, 5, 7, 9}), 32.0 / 7.0, 1e-12);
}

TEST(StddevTest, MatchesVariance) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(stddev(xs), std::sqrt(variance(xs)));
}

TEST(MinMaxTest, Basics) {
  EXPECT_DOUBLE_EQ(min_of({3, -1, 2}), -1.0);
  EXPECT_DOUBLE_EQ(max_of({3, -1, 2}), 3.0);
  EXPECT_DOUBLE_EQ(min_of({}), 0.0);
}

TEST(PercentileTest, ThrowsOnEmpty) {
  EXPECT_THROW((void)percentile({}, 50.0), std::invalid_argument);
}

TEST(PercentileTest, SingleElement) {
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 100.0), 7.0);
}

TEST(PercentileTest, LinearInterpolation) {
  const std::vector<double> xs = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 1.75);
}

TEST(PercentileTest, ClampsOutOfRangeQ) {
  const std::vector<double> xs = {1, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(xs, -5.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 150.0), 3.0);
}

TEST(PercentileTest, UnsortedInputHandled) {
  EXPECT_DOUBLE_EQ(percentile({9, 1, 5}, 50.0), 5.0);
}

// Property: percentile is monotone in q.
class PercentileMonotoneTest : public ::testing::TestWithParam<double> {};
TEST_P(PercentileMonotoneTest, MonotoneInQ) {
  Rng rng(GetParam() * 1000);
  std::vector<double> xs;
  for (int i = 0; i < 50; ++i) xs.push_back(rng.uniform(-10, 10));
  double prev = percentile(xs, 0.0);
  for (double q = 5.0; q <= 100.0; q += 5.0) {
    const double cur = percentile(xs, q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}
INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotoneTest,
                         ::testing::Values(0.001, 0.002, 0.003, 0.004, 0.005));

TEST(MedianTest, EvenOdd) {
  EXPECT_DOUBLE_EQ(median({1, 3, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({1, 2, 3, 4}), 2.5);
}

TEST(BoxStatsTest, FiveNumberSummary) {
  const auto b = box_stats({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(b.min, 1.0);
  EXPECT_DOUBLE_EQ(b.q1, 2.0);
  EXPECT_DOUBLE_EQ(b.median, 3.0);
  EXPECT_DOUBLE_EQ(b.q3, 4.0);
  EXPECT_DOUBLE_EQ(b.max, 5.0);
  EXPECT_DOUBLE_EQ(b.mean, 3.0);
  EXPECT_EQ(b.n, 5u);
}

TEST(BoxStatsTest, EmptyIsZeroed) {
  const auto b = box_stats({});
  EXPECT_EQ(b.n, 0u);
  EXPECT_DOUBLE_EQ(b.median, 0.0);
}

TEST(BoxStatsTest, ToStringContainsFields) {
  const auto s = to_string(box_stats({1, 2, 3}));
  EXPECT_NE(s.find("med="), std::string::npos);
  EXPECT_NE(s.find("n=3"), std::string::npos);
}

TEST(EcdfTest, EvalAndQuantile) {
  Ecdf ecdf({3.0, 1.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(ecdf.eval(0.5), 0.0);
  EXPECT_DOUBLE_EQ(ecdf.eval(1.0), 0.25);
  EXPECT_DOUBLE_EQ(ecdf.eval(2.5), 0.5);
  EXPECT_DOUBLE_EQ(ecdf.eval(10.0), 1.0);
  EXPECT_DOUBLE_EQ(ecdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(ecdf.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(ecdf.quantile(0.5), 2.5);
}

TEST(EcdfTest, EmptyBehaviour) {
  Ecdf ecdf({});
  EXPECT_DOUBLE_EQ(ecdf.eval(1.0), 0.0);
  EXPECT_THROW((void)ecdf.quantile(0.5), std::invalid_argument);
}

}  // namespace
}  // namespace hyperdrive::util
