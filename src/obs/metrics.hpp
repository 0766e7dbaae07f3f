// MetricsRegistry — named counters, gauges and histograms with a fixed
// registration order so the exported snapshot is deterministic (DESIGN.md
// §10). Replaces the ad-hoc per-layer counters (ExperimentResult fields,
// bench-local tallies) as the one export surface for end-of-run metrics.
//
// Thread safety: counter()/gauge()/histogram() lookups and registrations are
// mutex-guarded and return references that stay valid for the registry's
// lifetime (instruments live in deques). Counter::add is a relaxed atomic,
// so concurrent sweep cells publishing into one shared registry produce
// deterministic *totals* (addition commutes). Gauges are last-write-wins and
// therefore only deterministic in single-run contexts; histograms commute
// like counters. For a byte-deterministic export under parallel publication,
// pre-register the metric names up front (registration order is emission
// order of write_csv) — see cluster::preregister_cluster_metrics.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace hyperdrive::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bound bucket histogram (upper bounds ascending; an implicit +inf
/// bucket catches the rest). Observations also accumulate count/sum/min/max.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);
  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double sum() const;
  /// Cumulative count of observations <= bounds()[i].
  [[nodiscard]] std::uint64_t cumulative(std::size_t i) const;
  [[nodiscard]] const std::vector<double>& bounds() const noexcept { return bounds_; }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

 private:
  std::vector<double> bounds_;
  mutable std::mutex mutex_;
  std::vector<std::uint64_t> buckets_;  // buckets_[i] counts (bounds_[i-1], bounds_[i]]
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-register. Names are unique across instrument types; reusing a
  /// name with a different type throws std::invalid_argument.
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  [[nodiscard]] Histogram& histogram(const std::string& name, std::vector<double> bounds);

  [[nodiscard]] std::size_t size() const;

  /// Snapshot export in registration order: "metric,type,value" rows; a
  /// histogram expands into .count/.sum/.min/.max plus one cumulative
  /// "le_<bound>" row per bucket (EXPERIMENTS.md "Metrics CSV schema").
  /// Byte-deterministic given a deterministic registration order; every
  /// number goes through one fixed %.6f format.
  void write_csv(std::ostream& out) const;
  /// write_csv to `path` through util::write_file (throws if the write fails).
  void save_csv_file(const std::string& path) const;

 private:
  enum class Type { Counter, Gauge, Histogram };
  struct Entry {
    std::string name;
    Type type;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
  };

  mutable std::mutex mutex_;
  std::deque<Counter> counters_;      // deques: stable addresses across growth
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::vector<Entry> order_;          // registration order drives the export
  std::unordered_map<std::string, std::size_t> index_;
};

}  // namespace hyperdrive::obs
