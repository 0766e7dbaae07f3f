#include "core/sweep_engine.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/experiment_runner.hpp"
#include "core/policy_registry.hpp"
#include "workload/cifar_model.hpp"
#include "workload/trace_tools.hpp"

namespace hyperdrive::core {
namespace {

/// A small but real sweep (policies x repeats over a CIFAR trace on the
/// replay simulator) — big enough that a scheduling race would scramble it,
/// small enough for a unit test.
SweepSpec small_sweep(const workload::WorkloadModel& model) {
  SweepSpec spec;
  spec.name = "test_sweep";
  const auto policy_ax = spec.add_policy_axis({"pop", "bandit", "earlyterm"});
  const auto repeat_ax = spec.add_repeat_axis(3);
  spec.run = [&model, policy_ax, repeat_ax](const SweepCell& cell) {
    const auto trace = workload::reachable_trace(model, 20, 100 + cell.at(repeat_ax) * 7);
    const std::vector<std::string> names = {"pop", "bandit", "earlyterm"};
    const auto policy = make_standard_policy(names[cell.at(policy_ax)], cell.at(repeat_ax));
    RunnerOptions options;
    options.substrate = Substrate::TraceReplay;
    options.machines = 2;
    options.max_experiment_time = util::SimTime::hours(48);
    return run_experiment(trace, *policy, options);
  };
  return spec;
}

TEST(SweepSpecTest, CellDecodeIsRowMajorFirstAxisSlowest) {
  SweepSpec spec;
  spec.add_axis("a", {"a0", "a1", "a2"});
  spec.add_axis("b", {"b0", "b1"});
  ASSERT_EQ(spec.cells(), 6u);
  // linear = a * 2 + b
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t b = 0; b < 2; ++b) {
      const auto cell = spec.cell(a * 2 + b);
      EXPECT_EQ(cell.linear, a * 2 + b);
      EXPECT_EQ(cell.at(0), a);
      EXPECT_EQ(cell.at(1), b);
    }
  }
  EXPECT_THROW(spec.cell(6), std::out_of_range);
}

TEST(SweepSpecTest, CellSeedsAreDistinctAndOrderSensitive) {
  // (i, j) and (j, i) must land on different streams, and every cell of a
  // grid must get its own seed.
  EXPECT_NE(derive_cell_seed(1, {0, 1}), derive_cell_seed(1, {1, 0}));
  EXPECT_NE(derive_cell_seed(1, {0, 1}), derive_cell_seed(2, {0, 1}));

  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) seeds.insert(derive_cell_seed(7, {i, j}));
  }
  EXPECT_EQ(seeds.size(), 64u);
}

TEST(SweepSpecTest, CellSeedsAreStableUnderSweepExtension) {
  // Growing an axis (more repeats, one more policy) must not move the seeds
  // of the cells that already existed — the derivation only reads the cell's
  // own index vector.
  const auto before = derive_cell_seed(1, {2, 4});
  const auto after = derive_cell_seed(1, {2, 4});  // same index, bigger grid
  EXPECT_EQ(before, after);
}

TEST(SweepEngineTest, ValidatesTheSpec) {
  workload::CifarWorkloadModel model;
  auto no_axes = small_sweep(model);
  no_axes.axes.clear();
  EXPECT_THROW((void)run_sweep(no_axes), std::invalid_argument);

  auto no_run = small_sweep(model);
  no_run.run = nullptr;
  EXPECT_THROW((void)run_sweep(no_run), std::invalid_argument);
}

TEST(SweepEngineTest, RowsComeBackInCellEnumerationOrder) {
  workload::CifarWorkloadModel model;
  const auto table = run_sweep(small_sweep(model), 4);
  ASSERT_EQ(table.rows.size(), 9u);
  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    EXPECT_EQ(table.rows[i].cell.linear, i);
  }
  // Label-keyed selection: 3 repeats per policy.
  EXPECT_EQ(table.where("policy", "pop").size(), 3u);
  EXPECT_EQ(table.minutes_where("policy", "bandit").size(), 3u);
  EXPECT_THROW((void)table.where("nope", "x"), std::out_of_range);
}

TEST(SweepEngineTest, ParallelSweepIsByteIdenticalToSerial) {
  workload::CifarWorkloadModel model;
  const auto serial = run_sweep(small_sweep(model), 1);
  const auto parallel = run_sweep(small_sweep(model), 8);
  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
  // And stable across a re-run with the same thread count.
  const auto parallel2 = run_sweep(small_sweep(model), 8);
  EXPECT_EQ(parallel.to_csv(), parallel2.to_csv());
}

TEST(SweepEngineTest, CollectFillsExtraColumns) {
  workload::CifarWorkloadModel model;
  auto spec = small_sweep(model);
  spec.extra_columns = {"cell_seed_lo"};
  spec.run = [run = spec.run](const SweepCell& cell) {
    SweepRow row = run(cell);
    row.extra = {static_cast<double>(cell.seed & 0xFFFF)};
    return row;
  };
  const auto table = run_sweep(spec, 2);
  ASSERT_EQ(table.extra_column("cell_seed_lo"), 0u);
  for (const auto& row : table.rows) {
    ASSERT_EQ(row.extra.size(), 1u);
    EXPECT_EQ(row.extra[0], static_cast<double>(row.cell.seed & 0xFFFF));
  }
  EXPECT_NE(table.to_csv().find("cell_seed_lo"), std::string::npos);
}

TEST(SweepEngineTest, CollectArityMismatchThrows) {
  workload::CifarWorkloadModel model;
  auto spec = small_sweep(model);
  spec.extra_columns = {"a", "b"};
  spec.run = [run = spec.run](const SweepCell& cell) {
    SweepRow row = run(cell);
    row.extra = {1.0};  // wrong arity
    return row;
  };
  EXPECT_THROW((void)run_sweep(spec, 1), std::runtime_error);
}

TEST(SweepEngineTest, CensoredMinutesUseTotalTimeWhenTargetMissed) {
  SweepRow row;
  row.result.reached_target = false;
  row.result.total_time = util::SimTime::hours(2);
  EXPECT_DOUBLE_EQ(row.minutes_to_target(), 120.0);
  row.result.reached_target = true;
  row.result.time_to_target = util::SimTime::minutes(30);
  EXPECT_DOUBLE_EQ(row.minutes_to_target(), 30.0);
  EXPECT_DOUBLE_EQ(row.hours_to_target(), 0.5);
}

}  // namespace
}  // namespace hyperdrive::core
