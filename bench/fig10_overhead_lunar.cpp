// Figure 10: suspend latency (left) and model snapshot size (right)
// distributions for the LunarLander workload, where suspend/resume goes
// through whole-process CRIU snapshots. Paper: latency <= 22.36 s and
// snapshot size <= 43.75 MB — small relative to training time.
#include "bench_common.hpp"

using namespace hyperdrive;

int main(int argc, char** argv) {
  const auto bench_options = bench::parse_bench_args(argc, argv);
  bench::print_header("Figure 10", "CRIU suspend latency & snapshot size CDFs (LunarLander)");

  workload::LunarWorkloadModel model;

  core::SweepSpec spec;
  spec.name = "fig10_overhead_lunar";
  const auto repeat_ax = spec.add_repeat_axis(bench_options.repeats(5));
  spec.run = [&](const core::SweepCell& cell) {
    const auto trace = bench::reachable_trace(model, 100, 1000 + cell.at(repeat_ax) * 29);
    const auto policy = core::make_standard_policy("pop", cell.at(repeat_ax));
    core::RunnerOptions options;
    options.machines = 15;
    options.substrate = core::Substrate::Cluster;
    options.overheads = cluster::lunar_criu_overhead_model();
    options.seed = cell.at(repeat_ax);
    options.max_experiment_time = util::SimTime::hours(96);
    return core::run_experiment(trace, *policy, options);
  };

  const auto table = bench::run_bench_sweep(spec, bench_options);

  std::vector<double> latencies_s, sizes_mb;
  double training_minutes = 0.0;
  for (const auto& row : table.rows) {
    for (const auto& s : row.result.suspend_samples) {
      latencies_s.push_back(s.latency.to_seconds());
      sizes_mb.push_back(s.snapshot_bytes / 1e6);
    }
    training_minutes += row.result.total_machine_time.to_minutes();
  }

  bench::print_ecdf("latency", latencies_s, "s");
  bench::print_ecdf("snapshot", sizes_mb, "MB");
  std::printf("\nmax latency %.2f s (paper <= 22.36 s), max snapshot %.2f MB "
              "(paper <= 43.75 MB), suspends: %zu\n",
              util::max_of(latencies_s), util::max_of(sizes_mb), latencies_s.size());
  if (!latencies_s.empty()) {
    double total_suspend_min = 0.0;
    for (double l : latencies_s) total_suspend_min += l / 60.0;
    std::printf("suspend time as share of training machine time: %.3f%% "
                "(paper: considerably small)\n",
                100.0 * total_suspend_min / training_minutes);
  }
  return 0;
}
