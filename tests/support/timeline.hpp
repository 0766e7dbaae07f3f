// Golden-trace helpers: the obs sink's event stream rendered as timeline
// lines (obs::render_line), the one event record the determinism tests
// compare — the same stream hyperdrive_cli --trace-out exports.
#pragma once

#include <algorithm>
#include <initializer_list>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "obs/sink.hpp"

namespace hyperdrive {

/// One render_line per recorded event, in emission order, leaving out
/// `skip_kinds`: events only one side of a comparison emits (the manager's
/// NodeAcquired / NodeReleased against a bare cluster, CheckpointWritten
/// against an uncheckpointed run).
inline std::vector<std::string> timeline(const obs::RecordingSink& sink,
                                         std::initializer_list<obs::EventKind> skip_kinds = {}) {
  std::vector<std::string> lines;
  lines.reserve(sink.events.size());
  for (const obs::TraceEvent& event : sink.events) {
    if (std::find(skip_kinds.begin(), skip_kinds.end(), event.kind) != skip_kinds.end()) {
      continue;
    }
    lines.push_back(obs::render_line(event));
  }
  return lines;
}

/// True when some recorded event's timeline line contains `needle`.
inline bool timeline_contains(const obs::RecordingSink& sink, const std::string& needle) {
  return std::any_of(sink.events.begin(), sink.events.end(), [&](const obs::TraceEvent& e) {
    return obs::render_line(e).find(needle) != std::string::npos;
  });
}

}  // namespace hyperdrive
