// SweepTable — the typed result of core::run_sweep: one row per cell (in
// cell-enumeration order, independent of which worker finished first), each
// the SweepRow its cell's `run` returned: the full ExperimentResult plus any
// extra-column values and recorded events. Provides the label-keyed selection
// the figure benches aggregate with (select by axis value, never by
// positional index) and a stable CSV export (schema documented in
// EXPERIMENTS.md "Sweep CSV schema").
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/sweep_spec.hpp"

namespace hyperdrive::core {

class SweepTable {
 public:
  std::string name;
  std::vector<SweepAxis> axes;
  std::vector<std::string> extra_columns;
  /// One row per cell, in cell-enumeration order.
  std::vector<SweepRow> rows;
  /// Execution accounting (not part of the CSV: timings are not
  /// deterministic, the table contents are).
  std::size_t threads = 1;
  double wall_seconds = 0.0;

  [[nodiscard]] std::size_t axis(const std::string& axis_name) const;
  [[nodiscard]] const std::string& label(const SweepRow& row, std::size_t axis) const;
  [[nodiscard]] const std::string& label(const SweepRow& row,
                                         const std::string& axis_name) const;

  /// Rows whose `axis_name` value equals `value` (label-keyed selection).
  [[nodiscard]] std::vector<const SweepRow*> where(const std::string& axis_name,
                                                   const std::string& value) const;
  /// Apply `metric` over a selection.
  [[nodiscard]] static std::vector<double> collect(
      const std::vector<const SweepRow*>& selection,
      const std::function<double(const SweepRow&)>& metric);
  /// Censored minutes-to-target of every row matching the axis value.
  [[nodiscard]] std::vector<double> minutes_where(const std::string& axis_name,
                                                  const std::string& value) const;
  /// Index of an extra column; throws std::out_of_range if absent.
  [[nodiscard]] std::size_t extra_column(const std::string& column) const;

  /// Write the table as CSV (EXPERIMENTS.md "Sweep CSV schema"). The output
  /// is byte-deterministic: same spec + seeds => same bytes, regardless of
  /// the thread count that produced the table.
  void save_csv(std::ostream& out) const;
  [[nodiscard]] std::string to_csv() const;
  /// save_csv to `path`; throws std::runtime_error if unwritable.
  void save_csv_file(const std::string& path) const;

  /// Write every row's event stream as one timeline CSV (EXPERIMENTS.md
  /// "Timeline CSV schema"): cell + axis-label columns prefixed onto the
  /// obs::timeline_columns fields, rows in cell-enumeration order then event
  /// order. Byte-deterministic across thread counts (rows land in cell
  /// order). Empty event streams contribute no rows.
  void save_timeline_csv(std::ostream& out) const;
  /// save_timeline_csv to `path`; throws std::runtime_error if unwritable.
  void save_timeline_csv_file(const std::string& path) const;
};

}  // namespace hyperdrive::core
