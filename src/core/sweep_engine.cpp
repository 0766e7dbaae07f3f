#include "core/sweep_engine.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/thread_pool.hpp"

namespace hyperdrive::core {

SweepTable run_sweep(const SweepSpec& spec, std::size_t threads) {
  if (spec.axes.empty()) throw std::invalid_argument("SweepSpec has no axes");
  if (!spec.run) throw std::invalid_argument("SweepSpec.run is not set");
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());

  SweepTable table;
  table.name = spec.name;
  table.axes = spec.axes;
  table.extra_columns = spec.extra_columns;
  table.threads = threads;
  table.rows.resize(spec.cells());

  // Each worker computes one cell from scratch — trace, policy, predictor and
  // any event sink are all cell-local, and the row lands in the cell's
  // pre-allocated slot. No cross-cell state means completion order cannot
  // leak into the table.
  const auto run_cell = [&](std::size_t i) {
    SweepCell cell = spec.cell(i);
    SweepRow row = spec.run(cell);
    if (row.extra.size() != spec.extra_columns.size()) {
      throw std::runtime_error("SweepSpec.run returned " + std::to_string(row.extra.size()) +
                               " extra values for " +
                               std::to_string(spec.extra_columns.size()) + " extra_columns");
    }
    row.cell = std::move(cell);
    table.rows[i] = std::move(row);
  };

  const auto start = std::chrono::steady_clock::now();
  util::parallel_for(table.rows.size(), threads, run_cell);
  table.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return table;
}

}  // namespace hyperdrive::core
