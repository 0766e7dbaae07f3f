// perf_sweep_cell: end-to-end sweep-cell throughput on the fig07-class grid
// (cells/s, serial and parallel), recorded in BENCH_sweep_cell.json so the
// sweep-layer perf trajectory is tracked across PRs alongside the predictor
// microbench (ROADMAP item 1; schema: EXPERIMENTS.md). A cell is one full
// cluster experiment: trace realization, POP/Bandit/EarlyTerm scheduling,
// predictor fits at every evaluation boundary.
#include "bench_common.hpp"
#include "bench_json.hpp"

#include <thread>

using namespace hyperdrive;

int main(int argc, char** argv) {
  const auto options = bench::parse_bench_args(argc, argv);
  bench::print_header("perf_sweep_cell", "fig07-class cells/s, serial vs parallel");

  workload::CifarWorkloadModel model;
  const auto base = bench::suitable_trace(model, 100, 2202, /*machines=*/4);
  const std::size_t repeats = options.repeats(6);

  core::SweepSpec spec;
  spec.name = "perf_sweep_cell";
  const auto policy_ax = spec.add_policy_axis(bench::all_policies());
  const auto repeat_ax = spec.add_repeat_axis(repeats);
  spec.trace = [&](const core::SweepCell& cell) {
    return bench::renoise(model, base, 0xF167 ^ cell.at(repeat_ax));
  };
  spec.policy = [&](const core::SweepCell& cell) {
    return core::make_standard_policy(bench::all_policies()[cell.at(policy_ax)],
                                      cell.at(repeat_ax));
  };
  spec.options = [&](const core::SweepCell& cell) {
    core::RunnerOptions runner;
    runner.machines = 4;
    runner.substrate = core::Substrate::Cluster;
    runner.overheads = cluster::cifar_overhead_model();
    runner.seed = cell.at(repeat_ax);
    runner.max_experiment_time = util::SimTime::hours(96);
    return runner;
  };

  const std::size_t cells = spec.cells();
  const std::size_t threads =
      options.jobs != 0 ? options.jobs
                        : std::max(1u, std::thread::hardware_concurrency());
  std::printf("grid: %zu cells, parallel run on %zu threads\n\n", cells, threads);

  const auto serial = core::run_sweep(spec, 1);
  const double serial_cells_per_s = static_cast<double>(cells) / serial.wall_seconds;
  std::printf("  serial:   %6.2f s  %6.3f cells/s\n", serial.wall_seconds,
              serial_cells_per_s);

  const auto parallel = core::run_sweep(spec, threads);
  const double parallel_cells_per_s = static_cast<double>(cells) / parallel.wall_seconds;
  const bool identical = parallel.to_csv() == serial.to_csv();
  std::printf("  parallel: %6.2f s  %6.3f cells/s  table %s\n", parallel.wall_seconds,
              parallel_cells_per_s, identical ? "byte-identical" : "DIVERGED");

  if (!options.csv.empty()) serial.save_csv_file(options.csv);
  if (!identical) {
    std::printf("\nFAIL: parallel table differs from serial\n");
    return 1;
  }

  bench::BenchJson json("perf_sweep_cell");
  json.set("wall_ms", 1000.0 * (serial.wall_seconds + parallel.wall_seconds));
  json.set("cells_per_s", serial_cells_per_s);
  json.set("parallel_cells_per_s", parallel_cells_per_s);
  json.set("parallel_speedup", parallel_cells_per_s / serial_cells_per_s);
  json.set_count("cells", cells);
  json.set_count("threads", threads);
  json.set_count("smoke", options.smoke ? 1 : 0);
  json.write_file(options.out.empty() ? "BENCH_sweep_cell.json" : options.out);
  return 0;
}
