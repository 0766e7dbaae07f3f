#include "core/sweep_table.hpp"

#include <sstream>
#include <stdexcept>

#include "obs/export.hpp"
#include "util/atomic_file.hpp"
#include "util/csv.hpp"

namespace hyperdrive::core {

double SweepRow::minutes_to_target() const {
  return result.reached_target ? result.time_to_target.to_minutes()
                               : result.total_time.to_minutes();
}

std::size_t SweepTable::axis(const std::string& axis_name) const {
  for (std::size_t i = 0; i < axes.size(); ++i) {
    if (axes[i].name == axis_name) return i;
  }
  throw std::out_of_range("no sweep axis named '" + axis_name + "'");
}

const std::string& SweepTable::label(const SweepRow& row, std::size_t axis) const {
  return axes.at(axis).values.at(row.cell.at(axis));
}

const std::string& SweepTable::label(const SweepRow& row,
                                     const std::string& axis_name) const {
  return label(row, axis(axis_name));
}

std::vector<const SweepRow*> SweepTable::where(const std::string& axis_name,
                                               const std::string& value) const {
  const std::size_t a = axis(axis_name);
  std::vector<const SweepRow*> out;
  for (const auto& row : rows) {
    if (label(row, a) == value) out.push_back(&row);
  }
  return out;
}

std::vector<double> SweepTable::collect(
    const std::vector<const SweepRow*>& selection,
    const std::function<double(const SweepRow&)>& metric) {
  std::vector<double> out;
  out.reserve(selection.size());
  for (const auto* row : selection) out.push_back(metric(*row));
  return out;
}

std::vector<double> SweepTable::minutes_where(const std::string& axis_name,
                                              const std::string& value) const {
  return collect(where(axis_name, value),
                 [](const SweepRow& row) { return row.minutes_to_target(); });
}

std::size_t SweepTable::extra_column(const std::string& column) const {
  for (std::size_t i = 0; i < extra_columns.size(); ++i) {
    if (extra_columns[i] == column) return i;
  }
  throw std::out_of_range("no sweep extra column named '" + column + "'");
}

void SweepTable::save_csv(std::ostream& out) const {
  std::vector<std::string> header = {"cell"};
  for (const auto& axis : axes) header.push_back(axis.name);
  for (const auto* col :
       {"seed", "policy_name", "reached_target", "time_to_target_min", "total_time_min",
        "best_perf", "machine_time_min", "jobs_started", "suspends", "terminations",
        "clones", "retransmissions", "jobs_requeued", "epochs_lost", "jobs_migrated",
        "nodes_quarantined", "wrong_kills"}) {
    header.emplace_back(col);
  }
  for (const auto& col : extra_columns) header.push_back(col);

  util::CsvWriter writer(out, header);
  for (const auto& row : rows) {
    std::vector<std::string> fields;
    fields.reserve(header.size());
    fields.push_back(util::csv_number(row.cell.linear));
    for (std::size_t a = 0; a < axes.size(); ++a) fields.push_back(label(row, a));
    const auto& r = row.result;
    fields.push_back(util::csv_number(row.cell.seed));
    fields.push_back(r.policy_name);
    fields.push_back(r.reached_target ? "1" : "0");
    fields.push_back(util::csv_number(r.time_to_target.to_minutes()));
    fields.push_back(util::csv_number(r.total_time.to_minutes()));
    fields.push_back(util::csv_number(r.best_perf));
    fields.push_back(util::csv_number(r.total_machine_time.to_minutes()));
    fields.push_back(util::csv_number(r.jobs_started));
    fields.push_back(util::csv_number(r.suspends));
    fields.push_back(util::csv_number(r.terminations));
    fields.push_back(util::csv_number(r.clones));
    fields.push_back(util::csv_number(r.retransmissions));
    fields.push_back(util::csv_number(r.recovery.jobs_requeued));
    fields.push_back(util::csv_number(r.recovery.epochs_lost));
    fields.push_back(util::csv_number(r.recovery.jobs_migrated));
    fields.push_back(util::csv_number(r.recovery.nodes_quarantined));
    fields.push_back(util::csv_number(r.recovery.wrong_kills));
    for (const double x : row.extra) fields.push_back(util::csv_number(x));
    writer.write_row(fields);
  }
}

std::string SweepTable::to_csv() const {
  std::ostringstream os;
  save_csv(os);
  return os.str();
}

void SweepTable::save_csv_file(const std::string& path) const {
  util::write_file(path, to_csv());
}

void SweepTable::save_timeline_csv(std::ostream& out) const {
  std::vector<std::string> header = {"cell"};
  for (const auto& axis : axes) header.push_back(axis.name);
  for (auto& col : obs::timeline_columns()) header.push_back(std::move(col));

  util::CsvWriter writer(out, header);
  for (const auto& row : rows) {
    std::vector<std::string> prefix;
    prefix.reserve(1 + axes.size());
    prefix.push_back(util::csv_number(row.cell.linear));
    for (std::size_t a = 0; a < axes.size(); ++a) prefix.push_back(label(row, a));
    for (const auto& event : row.events) {
      std::vector<std::string> fields = prefix;
      fields.reserve(header.size());
      for (auto& field : obs::timeline_fields(event)) fields.push_back(std::move(field));
      writer.write_row(fields);
    }
  }
}

void SweepTable::save_timeline_csv_file(const std::string& path) const {
  std::ostringstream out;
  save_timeline_csv(out);
  util::write_file(path, out.str());
}

}  // namespace hyperdrive::core
