// What one benchmark run reports: output-check verdict, attempted and failed
// operations, and the named metrics of its mode (end-to-end for the
// untraced run, per-layer for the traced run) with units and sample counts.
// The metric tables in report.cpp are the single list of names; they match
// BENCHMARK.json, which run.py checks.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for service state and span files (inside the checkout).
  std::string work_dir = ".bench_build/work";
  /// Load-generator threads: min(4, hardware threads).
  std::size_t workers = 4;
};

class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Set a metric of this run's mode; throws std::logic_error on a name not
  /// in that mode's table.
  void set(const std::string& name, double value, std::size_t samples);
  /// Record a failed output check (the run then reports correct=false).
  void fail(std::string what);
  [[nodiscard]] bool correct() const noexcept { return failures_.empty(); }

  /// Every metric of the mode in table order, as a table on stderr and as the
  /// one-line JSON result on stdout. An end-to-end metric left unset fails
  /// the run; a per-layer metric left unset reads 0 (layer not reached from
  /// outside on this workload).
  void print();

 private:
  struct Value {
    double value = 0.0;
    std::size_t samples = 0;
  };
  bool trace_;
  std::map<std::string, Value> values_;
  std::vector<std::string> failures_;
};

/// Linear-interpolation quantile (q in [0,1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> xs, double q);
[[nodiscard]] double mean(const std::vector<double>& xs);
/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
