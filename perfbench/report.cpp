#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include <sys/resource.h>

namespace perfbench {

namespace {

using Table = std::vector<std::pair<const char*, const char*>>;

// End-to-end metrics. A "unit" of work is one sweep cell on the sweep
// workloads and one client round of two studies on svc-studies (README.md).
const Table kEndToEnd = {
    {"units_per_s", "1/s"},   {"unit_ms_mean", "ms"}, {"unit_ms_p90", "ms"},
    {"sim_hours_mean", "h"},  {"peak_rss_mb", "MB"},  {"setup_s", "s"},
};

// Per-layer metrics of the traced run. Counts and milliseconds are means per
// unit of work; shares are of summed unit time.
const Table kPerLayer = {
    {"workload.realize_calls", "count"},  {"workload.realize_ms", "ms"},
    {"workload.realize_share", "ratio"},  {"predictor.calls", "count"},
    {"predictor.fits", "count"},          {"predictor.hit_ratio", "ratio"},
    {"predictor.fit_ms", "ms"},           {"predictor.fit_share", "ratio"},
    {"predictor.fit_us_p50", "us"},       {"predictor.fit_us_p90", "us"},
    {"predictor.warm_hits", "count"},     {"policy.upcalls", "count"},
    {"policy.self_ms", "ms"},             {"policy.self_share", "ratio"},
    {"policy.upcall_us_p50", "us"},       {"policy.upcall_us_p99", "us"},
    {"substrate.self_ms", "ms"},          {"substrate.self_share", "ratio"},
    {"sim.events", "count"},              {"sim.events_per_s", "1/s"},
    {"cluster.jobs_started", "count"},    {"cluster.suspends", "count"},
    {"cluster.retransmissions", "count"}, {"cluster.jobs_requeued", "count"},
    {"cluster.epochs_lost", "count"},     {"sweep.busy_frac", "ratio"},
    {"ckpt.frames", "count"},             {"ckpt.bytes_per_frame", "B"},
    {"ckpt.encode_us_p50", "us"},         {"ckpt.decode_us_p50", "us"},
    {"svc.submit_ms_p50", "ms"},          {"svc.submit_ms_p90", "ms"},
    {"svc.status_ms_p50", "ms"},          {"svc.fetch_ms_p50", "ms"},
    {"svc.polls_per_study", "count"},     {"svc.queue_wait_ms_mean", "ms"},
    {"trace.overhead_frac", "ratio"},
};

}  // namespace

void Report::set(const std::string& name, double value, std::size_t samples) {
  const Table& table = trace_ ? kPerLayer : kEndToEnd;
  const bool known = std::any_of(table.begin(), table.end(),
                                 [&](const auto& entry) { return name == entry.first; });
  if (!known) throw std::logic_error("metric " + name + " is not reported in this mode");
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0.0;
  }
  values_[name] = Value{value, samples};
}

void Report::fail(std::string what) { failures_.push_back(std::move(what)); }

void Report::print() {
  const Table& table = trace_ ? kPerLayer : kEndToEnd;
  for (const auto& [name, unit] : table) {
    if (!trace_ && values_.find(name) == values_.end()) {
      fail(std::string("end-to-end metric ") + name + " was not measured");
    }
  }
  std::ostringstream json;
  json << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : table) {
    const Value v = values_[name];
    std::fprintf(stderr, "  %-26s %18.6f %-6s n=%zu\n", name, v.value, unit, v.samples);
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", v.value);
    json << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << number
         << ", \"unit\": \"" << unit << "\"}";
    first = false;
  }
  json << "}}";
  for (const auto& f : failures_) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  std::fprintf(stderr, "attempted=%llu failed=%llu correct=%s\n",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed), correct() ? "true" : "false");
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

}  // namespace perfbench
