#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace hyperdrive::util {

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size() - 1);
}

double stddev(const std::vector<double>& xs) { return std::sqrt(variance(xs)); }

double min_of(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return *std::min_element(xs.begin(), xs.end());
}

double max_of(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return *std::max_element(xs.begin(), xs.end());
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) throw std::invalid_argument("percentile of empty sample");
  if (q < 0.0) q = 0.0;
  if (q > 100.0) q = 100.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

BoxStats box_stats(const std::vector<double>& xs) {
  BoxStats b;
  if (xs.empty()) return b;
  b.min = min_of(xs);
  b.q1 = percentile(xs, 25.0);
  b.median = percentile(xs, 50.0);
  b.q3 = percentile(xs, 75.0);
  b.max = max_of(xs);
  b.mean = mean(xs);
  b.n = xs.size();
  return b;
}

std::string to_string(const BoxStats& b) {
  std::ostringstream os;
  os.precision(4);
  os << "min=" << b.min << " q1=" << b.q1 << " med=" << b.median << " q3=" << b.q3
     << " max=" << b.max << " (mean=" << b.mean << ", n=" << b.n << ")";
  return os.str();
}

Ecdf::Ecdf(std::vector<double> samples) : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double Ecdf::eval(double x) const noexcept {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

double Ecdf::quantile(double q) const {
  if (sorted_.empty()) throw std::invalid_argument("quantile of empty ECDF");
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

}  // namespace hyperdrive::util
