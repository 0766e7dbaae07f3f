// obs::Scope — the one instrumentation handle threaded through construction
// of every instrumented layer (ClusterOptions, RunnerOptions,
// StudyManagerOptions, ServiceOptions). A default Scope is detached: emit
// sites cost a single null-pointer test and build nothing, the
// zero-overhead-when-null contract of DESIGN.md §10.
//
// Scope is a small copyable value, not an owner: the sink and registry must
// outlive every component the scope was handed to. Events carry their own
// study label; tenant clusters stamp it from ClusterOptions::study_label.
#pragma once

#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"

namespace hyperdrive::obs {

struct Scope {
  EventSink* sink = nullptr;
  MetricsRegistry* metrics = nullptr;

  /// Emit one event. Call sites that build a non-trivial event should test
  /// `sink` first; the null check here keeps even unguarded sites safe.
  void emit(const TraceEvent& event) const {
    if (sink != nullptr) sink->on_event(event);
  }
};

}  // namespace hyperdrive::obs
