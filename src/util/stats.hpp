// Descriptive statistics used throughout the evaluation harness: moments,
// percentiles and quartile summaries for the paper's box plots (Fig. 7 /
// Fig. 9), and ECDFs for the duration and overhead distributions (Fig. 6 /
// Fig. 10 / Fig. 12c). The histogram programs export is obs::Histogram.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace hyperdrive::util {

[[nodiscard]] double mean(const std::vector<double>& xs);
/// Sample variance (divides by n-1); returns 0 for fewer than two samples.
[[nodiscard]] double variance(const std::vector<double>& xs);
[[nodiscard]] double stddev(const std::vector<double>& xs);
[[nodiscard]] double min_of(const std::vector<double>& xs);
[[nodiscard]] double max_of(const std::vector<double>& xs);

/// Linear-interpolation percentile (same convention as numpy.percentile).
/// q is in [0, 100]. Throws std::invalid_argument on empty input.
[[nodiscard]] double percentile(std::vector<double> xs, double q);
[[nodiscard]] double median(std::vector<double> xs);

/// Five-number summary used to print box plots as text.
struct BoxStats {
  double min = 0, q1 = 0, median = 0, q3 = 0, max = 0;
  double mean = 0;
  std::size_t n = 0;
};
[[nodiscard]] BoxStats box_stats(const std::vector<double>& xs);
/// Render "min/Q1/med/Q3/max (mean, n)" for the bench reports.
[[nodiscard]] std::string to_string(const BoxStats& b);

/// Empirical CDF over the samples. eval(x) = fraction of samples <= x.
class Ecdf {
 public:
  explicit Ecdf(std::vector<double> samples);
  [[nodiscard]] double eval(double x) const noexcept;
  /// Inverse ECDF: the q-quantile, q in [0, 1].
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] std::size_t size() const noexcept { return sorted_.size(); }
  [[nodiscard]] const std::vector<double>& sorted() const noexcept { return sorted_; }

 private:
  std::vector<double> sorted_;
};

}  // namespace hyperdrive::util
