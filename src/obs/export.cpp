#include "obs/export.hpp"

#include <cstdio>
#include <ostream>
#include <sstream>

#include "util/atomic_file.hpp"
#include "util/csv.hpp"

namespace hyperdrive::obs {

namespace {

/// Event times print with 9 decimals (nanoseconds) in both exports.
std::string fmt_time(util::SimTime t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9f", t.to_seconds());
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {  // JSON forbids raw control bytes
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::vector<std::string> timeline_columns() {
  return {"time_s", "kind", "study", "job", "machine", "epoch", "detail"};
}

std::vector<std::string> timeline_fields(const TraceEvent& e) {
  const auto id = [](std::int64_t v) { return v >= 0 ? std::to_string(v) : std::string(); };
  return {fmt_time(e.time), std::string(to_string(e.kind)), e.study,
          id(e.job),        id(e.machine),                  id(e.epoch),
          e.detail};
}

void write_timeline_csv(std::ostream& out, std::span<const TraceEvent> events) {
  util::CsvWriter writer(out, timeline_columns());
  for (const TraceEvent& event : events) writer.write_row(timeline_fields(event));
}

void write_timeline_jsonl(std::ostream& out, std::span<const TraceEvent> events) {
  for (const TraceEvent& e : events) {
    out << "{\"time_s\":" << fmt_time(e.time) << ",\"kind\":\"" << to_string(e.kind)
        << '"';
    if (!e.study.empty()) out << ",\"study\":\"" << json_escape(e.study) << '"';
    if (e.job >= 0) out << ",\"job\":" << e.job;
    if (e.machine >= 0) out << ",\"machine\":" << e.machine;
    if (e.epoch >= 0) out << ",\"epoch\":" << e.epoch;
    if (!e.detail.empty()) out << ",\"detail\":\"" << json_escape(e.detail) << '"';
    out << "}\n";
  }
}

void save_timeline_file(const std::string& path, std::span<const TraceEvent> events) {
  std::ostringstream out;
  const bool jsonl = path.size() >= 6 && path.compare(path.size() - 6, 6, ".jsonl") == 0;
  if (jsonl) {
    write_timeline_jsonl(out, events);
  } else {
    write_timeline_csv(out, events);
  }
  util::write_file(path, out.str());
}

}  // namespace hyperdrive::obs
