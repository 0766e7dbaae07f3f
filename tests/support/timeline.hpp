// Golden-trace helpers over the obs sink's event stream, the one event
// record the determinism tests check. An event's text form is its timeline
// row — the bytes hyperdrive_cli --trace-out exports for it — and single
// events are found by typed queries, never by matching rendered text.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "obs/export.hpp"
#include "obs/sink.hpp"
#include "util/csv.hpp"

namespace hyperdrive {

/// The row obs::write_timeline_csv writes for `event`, without its newline.
inline std::string timeline_row(const obs::TraceEvent& event) {
  std::string row;
  const std::vector<std::string> fields = obs::timeline_fields(event);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) row += ',';
    row += util::csv_escape(fields[i]);
  }
  return row;
}

/// One timeline row per recorded event, in emission order, leaving out
/// `skip_kinds`: events only one side of a comparison emits (the manager's
/// NodeAcquired / NodeReleased against a bare cluster, CheckpointWritten
/// against an uncheckpointed run).
inline std::vector<std::string> timeline(const obs::RecordingSink& sink,
                                         std::initializer_list<obs::EventKind> skip_kinds = {}) {
  std::vector<std::string> rows;
  rows.reserve(sink.events.size());
  for (const obs::TraceEvent& event : sink.events) {
    if (std::find(skip_kinds.begin(), skip_kinds.end(), event.kind) != skip_kinds.end()) {
      continue;
    }
    rows.push_back(timeline_row(event));
  }
  return rows;
}

/// A typed event query, written with designated initializers:
/// {.kind = obs::EventKind::JobMigrate, .machine = 3, .detail = "spot"}.
/// Fields left unset match any value.
struct EventQuery {
  obs::EventKind kind;
  std::optional<std::int64_t> job = {};
  std::optional<std::int64_t> machine = {};
  std::optional<std::int64_t> epoch = {};
  std::optional<std::string> detail = {};
  std::optional<std::string> study = {};
};

/// True when the sink recorded an event matching `query`.
inline bool has_event(const obs::RecordingSink& sink, const EventQuery& query) {
  const auto matches = [&](const obs::TraceEvent* e) {
    return (!query.job || e->job == *query.job) &&
           (!query.machine || e->machine == *query.machine) &&
           (!query.epoch || e->epoch == *query.epoch) &&
           (!query.detail || e->detail == *query.detail) &&
           (!query.study || e->study == *query.study);
  };
  const std::vector<const obs::TraceEvent*> candidates = sink.of_kind(query.kind);
  return std::any_of(candidates.begin(), candidates.end(), matches);
}

}  // namespace hyperdrive
