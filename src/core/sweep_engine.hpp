// run_sweep — executes a SweepSpec: every cell of the grid is an independent
// experiment (own trace, own policy, own predictor), so cells fan out on
// util::parallel_for and the table is assembled slot-by-slot in
// cell-enumeration order. Aggregation is therefore order-independent: the
// table (and its CSV) is byte-identical whether the sweep ran on 1 thread
// or 8 (the determinism contract of DESIGN.md §8, enforced by
// tests/core/sweep_engine_test.cpp under TSan in CI).
#pragma once

#include <cstddef>

#include "core/sweep_spec.hpp"
#include "core/sweep_table.hpp"

namespace hyperdrive::core {

/// Run every cell of `spec` on `threads` workers (0 = hardware concurrency)
/// and collect the table. Throws std::invalid_argument on a spec without axes
/// or `run`, and std::runtime_error when a row's extras do not match
/// `extra_columns`; exceptions thrown by a cell propagate (first wins).
[[nodiscard]] SweepTable run_sweep(const SweepSpec& spec, std::size_t threads = 0);

}  // namespace hyperdrive::core
