#include "workload/workload_model.hpp"

#include <algorithm>
#include <cmath>

namespace hyperdrive::workload {

double GroundTruthCurve::best_perf() const noexcept {
  if (perf.empty()) return 0.0;
  return *std::max_element(perf.begin(), perf.end());
}

double log_kernel(double value, double ideal_log10, double width) {
  const double d = (std::log10(value) - ideal_log10) / width;
  return std::exp(-d * d);
}

double linear_kernel(double value, double ideal, double width) {
  const double d = (value - ideal) / width;
  return std::exp(-d * d);
}

std::size_t GroundTruthCurve::first_epoch_reaching(double target) const noexcept {
  for (std::size_t i = 0; i < perf.size(); ++i) {
    if (perf[i] >= target) return i + 1;
  }
  return 0;
}

}  // namespace hyperdrive::workload
