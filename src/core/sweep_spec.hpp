// SweepSpec — a declarative description of an experiment sweep: the cross
// product of named axes (policy, repeat/seed, machine count, trace variant,
// fault scenario, ...) where every cell runs one experiment. The paper's
// whole evaluation is such a grid (Figs. 6–12, the §6.2.3 table, the §8/§9
// extensions); production HPO middleware (Tune, ExpoCloud — PAPERS.md)
// treats this orchestration as a first-class layer, and so does this repo:
// core::run_sweep (sweep_engine.hpp) calls the spec's one `run` executor per
// cell, fans independent cells out on util::parallel_for and returns a typed
// SweepTable.
//
// Determinism contract (DESIGN.md §8): `run` must be a pure function of the
// SweepCell it receives (axis indices + derived seed). Cells share nothing
// mutable, so a parallel sweep is byte-identical to a serial one.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment_result.hpp"
#include "obs/event.hpp"

namespace hyperdrive::core {

/// One named axis of the sweep grid; `values` are the human-readable labels
/// that key the SweepTable (and its CSV column of the same name).
struct SweepAxis {
  std::string name;
  std::vector<std::string> values;

  [[nodiscard]] std::size_t size() const noexcept { return values.size(); }
};

/// One cell of the grid: its linear enumeration index (row-major, first axis
/// slowest), the per-axis value indices, and the derived cell seed.
struct SweepCell {
  std::size_t linear = 0;
  std::vector<std::size_t> index;
  /// Derived via derive_cell_seed (DESIGN.md §8) — statistically
  /// independent per cell, stable under sweep extension along later axes.
  std::uint64_t seed = 0;

  /// Value index of axis `axis` (as returned by SweepSpec::add_axis).
  [[nodiscard]] std::size_t at(std::size_t axis) const { return index.at(axis); }
};

/// What one cell's `run` returns: the experiment's result, plus the values
/// of the spec's extra_columns and the cell's typed event stream when the
/// cell records them. The engine stamps `cell`.
struct SweepRow {
  SweepRow() = default;
  /// Not explicit: a cell with no extras or events returns its bare result.
  SweepRow(ExperimentResult r) : result(std::move(r)) {}

  SweepCell cell;
  ExperimentResult result;
  /// Values of SweepTable::extra_columns, in the same order.
  std::vector<double> extra;
  /// Typed event stream of this cell's run (DESIGN.md §10), e.g. from a
  /// cell-local obs::RecordingSink.
  std::vector<obs::TraceEvent> events;

  /// Time-to-target in minutes, censored at the experiment end when the
  /// target was never reached — the quantity Figs. 7/9/12 plot.
  [[nodiscard]] double minutes_to_target() const;
  [[nodiscard]] double hours_to_target() const { return minutes_to_target() / 60.0; }
};

/// Deterministic cell-seed derivation rule (DESIGN.md §8): fold each axis
/// value index into the base seed with util::derive_seed, mixing in the axis
/// ordinal so (i, j) and (j, i) land on different streams.
[[nodiscard]] std::uint64_t derive_cell_seed(std::uint64_t base_seed,
                                             const std::vector<std::size_t>& index);

class SweepSpec {
 public:
  /// Name stamped on the table (and printed by bench reports).
  std::string name = "sweep";
  /// Root of the per-cell seed derivation.
  std::uint64_t base_seed = 1;
  std::vector<SweepAxis> axes;
  /// Names of the per-cell values beyond ExperimentResult (e.g. a policy's
  /// prediction count); every row's `extra` holds one value per entry.
  std::vector<std::string> extra_columns;

  /// The cell executor: build the cell's trace, a fresh policy (policies are
  /// stateful — never share one across cells) and its options, run the
  /// experiment and return the row. Runs on a worker thread.
  std::function<SweepRow(const SweepCell&)> run;

  /// Append an axis; returns its index for SweepCell::at.
  std::size_t add_axis(std::string axis_name, std::vector<std::string> values);
  /// Axis "repeat" with values "0".."repeats-1" (the §6.1 fresh-noise axis).
  std::size_t add_repeat_axis(std::size_t repeats);
  /// Axis "policy" over registry policy names (core::PolicyRegistry;
  /// DESIGN.md §13). The labels key the table/CSV and usually feed
  /// core::make_standard_policy in `run`.
  std::size_t add_policy_axis(std::vector<std::string> names);

  /// Total number of cells (product of axis sizes; 0 when any axis is empty).
  [[nodiscard]] std::size_t cells() const noexcept;
  /// Decode a linear index into a cell (row-major, first axis slowest) and
  /// derive its seed.
  [[nodiscard]] SweepCell cell(std::size_t linear) const;
};

}  // namespace hyperdrive::core
