// In-memory span recording for the traced run. Every boundary the benchmark
// times (README.md, "Layers") opens a span on the calling thread. Each thread
// keeps, per layer, the count, total and self time and a duration histogram
// of every span it closed, and stores the spans themselves (layer, start,
// end, self time, parent, cell or study id) except policy up-calls: those
// run about 100 000 times per asha-faults cell, so they are only counted.
// A span's self time is its duration minus the durations of the spans it
// directly encloses. Recording takes no lock; a thread's records join the
// shared totals when the thread exits.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

enum class Layer : std::uint8_t {
  Cell,     ///< one sweep cell or one service study, end to end
  Realize,  ///< workload::renoise
  Run,      ///< core::run_experiment
  Upcall,   ///< one core::SchedulingPolicy up-call (counted, not stored)
  Predict,  ///< CurvePredictor::predict called on the CachingPredictor
  Fit,      ///< the inner predictor's predict/predict_warm (a cache miss)
  Submit,   ///< svc::Client::submit
  Status,   ///< svc::Client::status
  Fetch,    ///< svc::Client::fetch
  Encode,   ///< core::encode_checkpoint
  Decode,   ///< core::decode_checkpoint
};
inline constexpr std::size_t kLayerCount = 11;

[[nodiscard]] const char* layer_name(Layer layer) noexcept;

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t self_ns = 0;
  std::int32_t parent = -1;  ///< nearest stored enclosing span, same thread; -1 = none
  std::uint32_t unit = 0;    ///< cell index or study index
  Layer layer = Layer::Cell;
};

/// Per-layer totals with a log-bucketed duration histogram (2^-5 relative
/// bucket width, exact below 32 ns).
class LayerStats {
 public:
  void add(std::int64_t duration_ns, std::int64_t self_ns);
  void merge(const LayerStats& other);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double total_ms() const noexcept { return static_cast<double>(total_ns_) * 1e-6; }
  [[nodiscard]] double self_ms() const noexcept { return static_cast<double>(self_ns_) * 1e-6; }
  /// Duration quantile in microseconds, interpolated within its bucket.
  [[nodiscard]] double quantile_us(double q) const;

 private:
  std::uint64_t count_ = 0;
  std::int64_t total_ns_ = 0;
  std::int64_t self_ns_ = 0;
  std::vector<std::uint64_t> buckets_;
};

/// Open a span on this thread, enclosed by its innermost open span.
void span_begin(Layer layer);
/// Close this thread's innermost open span.
void span_end();
/// Stamp this thread's later spans with `unit` (the cell or study id).
void span_unit(std::uint32_t unit);

/// RAII span for a scoped call.
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer) { span_begin(layer); }
  ~ScopedSpan() { span_end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
};

struct Recording {
  std::vector<LayerStats> layers;        ///< indexed by Layer
  std::vector<std::vector<Span>> spans;  ///< stored spans, one buffer per thread
  [[nodiscard]] const LayerStats& at(Layer layer) const {
    return layers[static_cast<std::size_t>(layer)];
  }
};

/// Everything recorded since the last call, and reset. Every recording
/// thread except the caller must have exited.
[[nodiscard]] Recording take_recording();

/// Write stored spans as CSV (thread, index, parent, unit, layer, start_ns,
/// end_ns, self_ns).
void write_spans_csv(const std::string& path, const Recording& recording);

}  // namespace perfbench
