// Timeline exporters: the per-run event stream as CSV or JSONL (DESIGN.md
// §10, EXPERIMENTS.md "Timeline CSV schema"). Both exports are byte-
// deterministic: events are written in emission order, times through one
// fixed 9-decimal format. A timeline row is the one text form of an event.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "obs/event.hpp"

namespace hyperdrive::obs {

/// Column names of one timeline row: time_s,kind,study,job,machine,epoch,
/// detail. Exposed so other exporters (the SweepTable's cell-prefixed
/// timeline) can extend the header without duplicating the schema.
[[nodiscard]] std::vector<std::string> timeline_columns();

/// The CSV field values of `event`, in timeline_columns() order. Absent ids
/// (-1) render as empty fields.
[[nodiscard]] std::vector<std::string> timeline_fields(const TraceEvent& event);

/// Write header + one row per event.
void write_timeline_csv(std::ostream& out, std::span<const TraceEvent> events);
/// One JSON object per line, keys matching timeline_columns(); absent ids
/// and empty strings are omitted.
void write_timeline_jsonl(std::ostream& out, std::span<const TraceEvent> events);

/// write_timeline_csv / write_timeline_jsonl to `path` (picked by extension:
/// ".jsonl" selects JSONL, anything else CSV) through util::write_file,
/// which throws if the write fails.
void save_timeline_file(const std::string& path, std::span<const TraceEvent> events);

}  // namespace hyperdrive::obs
