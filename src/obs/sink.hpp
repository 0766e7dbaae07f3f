// EventSink — the receiving end of the instrumentation API. Sinks observe,
// never perturb: a sink must not call back into the emitting component, and
// the emitters draw no randomness and take no decisions on behalf of a sink,
// so a run with a sink attached is byte-identical (golden traces included)
// to the same run without one. That contract is what lets tests and tools
// reimplement oracles (e.g. wrong kills) as queries over the stream.
#pragma once

#include <cstddef>
#include <vector>

#include "obs/event.hpp"

namespace hyperdrive::obs {

class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_event(const TraceEvent& event) = 0;
};

/// Buffers every event in emission order. Not internally synchronized: one
/// RecordingSink belongs to one run (a sweep cell's `run` attaches its own
/// and moves the events into SweepRow::events, which is how a parallel
/// sweep's merged timeline stays identical to the serial one).
class RecordingSink final : public EventSink {
 public:
  void on_event(const TraceEvent& event) override { events.push_back(event); }

  /// Number of recorded events of `kind` — the query primitive the oracle
  /// tests use (e.g. count(EventKind::WrongKill)).
  [[nodiscard]] std::size_t count(EventKind kind) const {
    std::size_t n = 0;
    for (const auto& e : events) {
      if (e.kind == kind) ++n;
    }
    return n;
  }
  /// All recorded events of `kind`, in emission order.
  [[nodiscard]] std::vector<const TraceEvent*> of_kind(EventKind kind) const {
    std::vector<const TraceEvent*> out;
    for (const auto& e : events) {
      if (e.kind == kind) out.push_back(&e);
    }
    return out;
  }

  std::vector<TraceEvent> events;
};

}  // namespace hyperdrive::obs
