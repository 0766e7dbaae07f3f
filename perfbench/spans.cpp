#include "spans.hpp"

#include <bit>
#include <cstdio>
#include <mutex>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr int kSubBits = 5;
constexpr std::int64_t kSub = std::int64_t{1} << kSubBits;
/// Buckets for durations below 2^41 ns (about 37 minutes); longer ones
/// share the last bucket.
constexpr std::size_t kBuckets = kSub + (41 - kSubBits) * kSub;

std::size_t bucket_of(std::int64_t ns) {
  if (ns < kSub) return ns < 0 ? 0 : static_cast<std::size_t>(ns);
  const int shift = static_cast<int>(std::bit_width(static_cast<std::uint64_t>(ns))) - 1 - kSubBits;
  const auto b = static_cast<std::size_t>(kSub + shift * kSub + ((ns >> shift) & (kSub - 1)));
  return b < kBuckets ? b : kBuckets - 1;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::mutex g_mutex;  // guards g_recording
Recording g_recording{std::vector<LayerStats>(kLayerCount), {}};

struct Frame {
  std::int32_t stored = -1;  ///< index in ThreadState::spans, -1 if not stored
  Layer layer = Layer::Cell;
  std::int64_t start_ns = 0;
  std::int64_t child_ns = 0;
};

struct ThreadState {
  std::vector<LayerStats> layers = std::vector<LayerStats>(kLayerCount);
  std::vector<Span> spans;
  std::vector<Frame> open;
  std::uint32_t unit = 0;

  ThreadState() = default;
  ThreadState(const ThreadState&) = delete;
  ThreadState& operator=(const ThreadState&) = delete;
  ~ThreadState() { flush(); }

  /// Move this thread's records into g_recording.
  void flush() {
    std::lock_guard<std::mutex> lock(g_mutex);
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      g_recording.layers[i].merge(layers[i]);
      layers[i] = LayerStats{};
    }
    if (!spans.empty()) g_recording.spans.push_back(std::move(spans));
    spans.clear();
  }
};

thread_local ThreadState t_state;

}  // namespace

void LayerStats::add(std::int64_t duration_ns, std::int64_t self_ns) {
  if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  ++count_;
  total_ns_ += duration_ns;
  self_ns_ += self_ns;
  ++buckets_[bucket_of(duration_ns)];
}

void LayerStats::merge(const LayerStats& other) {
  if (other.count_ == 0) return;
  if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  count_ += other.count_;
  total_ns_ += other.total_ns_;
  self_ns_ += other.self_ns_;
  for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
}

double LayerStats::quantile_us(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  double below = 0.0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const auto n = static_cast<double>(buckets_[b]);
    if (n == 0.0 || below + n <= rank) {
      below += n;
      continue;
    }
    // Bucket b covers [lower, lower + width) nanoseconds.
    double lower = static_cast<double>(b), width = 1.0;
    if (b >= static_cast<std::size_t>(kSub)) {
      const auto shift = static_cast<int>((b - kSub) / kSub);
      const auto mantissa = static_cast<std::uint64_t>(kSub + (b - kSub) % kSub);
      lower = static_cast<double>(mantissa << shift);
      width = static_cast<double>(std::uint64_t{1} << shift);
    }
    return (lower + width * (rank - below + 0.5) / n) * 1e-3;
  }
  return 0.0;
}

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::Cell: return "cell";
    case Layer::Realize: return "workload.realize";
    case Layer::Run: return "core.run_experiment";
    case Layer::Upcall: return "policy.upcall";
    case Layer::Predict: return "predictor.predict";
    case Layer::Fit: return "predictor.fit";
    case Layer::Submit: return "svc.submit";
    case Layer::Status: return "svc.status";
    case Layer::Fetch: return "svc.fetch";
    case Layer::Encode: return "ckpt.encode";
    case Layer::Decode: return "ckpt.decode";
  }
  return "?";
}

void span_begin(Layer layer) {
  ThreadState& t = t_state;
  Frame frame;
  frame.layer = layer;
  if (layer != Layer::Upcall) {
    Span span;
    span.layer = layer;
    span.unit = t.unit;
    for (auto it = t.open.rbegin(); it != t.open.rend(); ++it) {
      if (it->stored >= 0) {
        span.parent = it->stored;
        break;
      }
    }
    frame.stored = static_cast<std::int32_t>(t.spans.size());
    t.spans.push_back(span);
  }
  frame.start_ns = now_ns();  // last, so the bookkeeping above is not timed
  t.open.push_back(frame);
}

void span_end() {
  const std::int64_t end_ns = now_ns();
  ThreadState& t = t_state;
  const Frame frame = t.open.back();
  t.open.pop_back();
  const std::int64_t duration = end_ns - frame.start_ns;
  const std::int64_t self = duration - frame.child_ns;
  t.layers[static_cast<std::size_t>(frame.layer)].add(duration, self);
  if (!t.open.empty()) t.open.back().child_ns += duration;
  if (frame.stored >= 0) {
    Span& span = t.spans[static_cast<std::size_t>(frame.stored)];
    span.start_ns = frame.start_ns;
    span.end_ns = end_ns;
    span.self_ns = self;
  }
}

void span_unit(std::uint32_t unit) { t_state.unit = unit; }

Recording take_recording() {
  t_state.flush();
  std::lock_guard<std::mutex> lock(g_mutex);
  Recording out = std::move(g_recording);
  g_recording = Recording{std::vector<LayerStats>(kLayerCount), {}};
  return out;
}

void write_spans_csv(const std::string& path, const Recording& recording) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(out, "thread,index,parent,unit,layer,start_ns,end_ns,self_ns\n");
  for (std::size_t t = 0; t < recording.spans.size(); ++t) {
    const auto& spans = recording.spans[t];
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(out, "%zu,%zu,%d,%u,%s,%lld,%lld,%lld\n", t, i, s.parent, s.unit,
                   layer_name(s.layer), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), static_cast<long long>(s.self_ns));
    }
  }
  if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
