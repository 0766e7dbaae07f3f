// Sweep-layer scaling check: the fig07-class grid (4 policies x N repeats on
// the cluster substrate) executed serially and then on 2/4/8 workers. Cells
// are independent experiments, so the sweep should scale near-linearly until
// the core count runs out — and the table must stay byte-identical at every
// thread count (DESIGN.md §8). CI logs keep the timing table as the recorded
// evidence of the parallel speedup.
#include "bench_common.hpp"

#include <thread>

using namespace hyperdrive;

namespace {

core::SweepSpec make_spec(const workload::WorkloadModel& model, const workload::Trace& base,
                          std::size_t repeats) {
  core::SweepSpec spec;
  spec.name = "sweep_scaling";
  const auto policy_ax = spec.add_policy_axis(bench::all_policies());
  const auto repeat_ax = spec.add_repeat_axis(repeats);
  spec.trace = [&model, &base, repeat_ax](const core::SweepCell& cell) {
    return bench::renoise(model, base, 0xF167 ^ cell.at(repeat_ax));
  };
  spec.policy = [policy_ax, repeat_ax](const core::SweepCell& cell) {
    return core::make_standard_policy(bench::all_policies()[cell.at(policy_ax)],
                                      cell.at(repeat_ax));
  };
  spec.options = [repeat_ax](const core::SweepCell& cell) {
    core::RunnerOptions options;
    options.machines = 4;
    options.substrate = core::Substrate::Cluster;
    options.overheads = cluster::cifar_overhead_model();
    options.seed = cell.at(repeat_ax);
    options.max_experiment_time = util::SimTime::hours(96);
    return options;
  };
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  const auto bench_options = bench::parse_bench_args(argc, argv);
  bench::print_header("Sweep scaling", "fig07-class sweep, serial vs parallel");

  workload::CifarWorkloadModel model;
  const auto base = bench::suitable_trace(model, 100, 2202, /*machines=*/4);
  const std::size_t repeats = bench_options.repeats(10);
  const auto spec = make_spec(model, base, repeats);

  std::printf("grid: %zu cells (%zu policies x %zu repeats), hardware threads: %u\n\n",
              spec.cells(), bench::all_policies().size(), repeats,
              std::thread::hardware_concurrency());

  const auto serial = core::run_sweep(spec, 1);
  std::printf("  threads=1: %7.2f s  (baseline)\n", serial.wall_seconds);

  bool all_identical = true;
  for (const std::size_t threads : {2ull, 4ull, 8ull}) {
    const auto parallel = core::run_sweep(spec, threads);
    const bool identical = parallel.to_csv() == serial.to_csv();
    all_identical = all_identical && identical;
    std::printf("  threads=%zu: %7.2f s  speedup %.2fx  table %s\n", threads,
                parallel.wall_seconds, serial.wall_seconds / parallel.wall_seconds,
                identical ? "byte-identical" : "DIVERGED");
  }

  if (!bench_options.csv.empty()) serial.save_csv_file(bench_options.csv);
  if (!all_identical) {
    std::printf("\nFAIL: parallel table differs from serial\n");
    return 1;
  }
  std::printf("\n(speedup is bounded by physical cores; the determinism check is\n"
              " exact at any thread count)\n");
  return 0;
}
