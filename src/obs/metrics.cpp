#include "obs/metrics.hpp"

#include <algorithm>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/atomic_file.hpp"
#include "util/csv.hpp"

namespace hyperdrive::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("histogram bounds must be ascending");
  }
  buckets_.assign(bounds_.size() + 1, 0);  // +1: the implicit +inf bucket
}

void Histogram::observe(double v) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  ++buckets_[i];
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

std::uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sum_;
}

std::uint64_t Histogram::cumulative(std::size_t i) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (std::size_t b = 0; b <= i && b < buckets_.size(); ++b) total += buckets_[b];
  return total;
}

double Histogram::min() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return min_;
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return max_;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = index_.find(name); it != index_.end()) {
    const Entry& entry = order_[it->second];
    if (entry.type != Type::Counter) {
      throw std::invalid_argument("metric '" + name + "' is not a counter");
    }
    return *entry.counter;
  }
  counters_.emplace_back();
  Entry entry;
  entry.name = name;
  entry.type = Type::Counter;
  entry.counter = &counters_.back();
  index_.emplace(name, order_.size());
  order_.push_back(entry);
  return counters_.back();
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = index_.find(name); it != index_.end()) {
    const Entry& entry = order_[it->second];
    if (entry.type != Type::Gauge) {
      throw std::invalid_argument("metric '" + name + "' is not a gauge");
    }
    return *entry.gauge;
  }
  gauges_.emplace_back();
  Entry entry;
  entry.name = name;
  entry.type = Type::Gauge;
  entry.gauge = &gauges_.back();
  index_.emplace(name, order_.size());
  order_.push_back(entry);
  return gauges_.back();
}

Histogram& MetricsRegistry::histogram(const std::string& name, std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = index_.find(name); it != index_.end()) {
    const Entry& entry = order_[it->second];
    if (entry.type != Type::Histogram) {
      throw std::invalid_argument("metric '" + name + "' is not a histogram");
    }
    return *entry.histogram;
  }
  histograms_.emplace_back(std::move(bounds));
  Entry entry;
  entry.name = name;
  entry.type = Type::Histogram;
  entry.histogram = &histograms_.back();
  index_.emplace(name, order_.size());
  order_.push_back(entry);
  return histograms_.back();
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return order_.size();
}

void MetricsRegistry::write_csv(std::ostream& out) const {
  std::vector<Entry> order;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    order = order_;
  }
  out << "metric,type,value\n";
  for (const Entry& entry : order) {
    switch (entry.type) {
      case Type::Counter:
        out << entry.name << ",counter," << entry.counter->value() << '\n';
        break;
      case Type::Gauge:
        out << entry.name << ",gauge," << util::csv_number(entry.gauge->value()) << '\n';
        break;
      case Type::Histogram: {
        const Histogram& h = *entry.histogram;
        out << entry.name << ".count,histogram," << h.count() << '\n';
        out << entry.name << ".sum,histogram," << util::csv_number(h.sum()) << '\n';
        out << entry.name << ".min,histogram,"
            << util::csv_number(h.count() > 0 ? h.min() : 0.0) << '\n';
        out << entry.name << ".max,histogram,"
            << util::csv_number(h.count() > 0 ? h.max() : 0.0) << '\n';
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
          out << entry.name << ".le_" << util::csv_number(h.bounds()[i]) << ",histogram,"
              << h.cumulative(i) << '\n';
        }
        break;
      }
    }
  }
}

void MetricsRegistry::save_csv_file(const std::string& path) const {
  std::ostringstream out;
  write_csv(out);
  util::write_file(path, out.str());
}

}  // namespace hyperdrive::obs
