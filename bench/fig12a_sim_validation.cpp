// Figure 12a: simulator validation. The paper compares its trace-driven
// simulator against the live system on LunarLander with 15 machines and
// reports a maximum error of 13%. Here the high-fidelity cluster (jitter,
// suspend/resume and messaging overheads) plays the live system and the
// idealized TraceReplaySimulator plays the simulator.
#include "bench_common.hpp"

#include <cmath>

using namespace hyperdrive;

int main(int argc, char** argv) {
  const auto bench_options = bench::parse_bench_args(argc, argv);
  bench::print_header("Figure 12a", "simulator vs 'live' cluster, LunarLander, 15 machines");

  workload::LunarWorkloadModel model;

  core::SweepSpec spec;
  spec.name = "fig12a_sim_validation";
  const auto policy_ax = spec.add_policy_axis(bench::evaluated_policies());
  const auto substrate_ax = spec.add_axis("substrate", {"live", "sim"});
  const auto repeat_ax = spec.add_repeat_axis(bench_options.repeats(5));
  spec.trace = [&](const core::SweepCell& cell) {
    return bench::reachable_trace(model, 100, 1100 + cell.at(repeat_ax) * 31);
  };
  spec.policy = [&](const core::SweepCell& cell) {
    return core::make_standard_policy(bench::evaluated_policies()[cell.at(policy_ax)],
                                      cell.at(repeat_ax));
  };
  spec.options = [&](const core::SweepCell& cell) {
    core::RunnerOptions options;
    options.machines = 15;
    options.max_experiment_time = util::SimTime::hours(96);
    options.seed = cell.at(repeat_ax);
    if (cell.at(substrate_ax) == 0) {
      options.substrate = core::Substrate::Cluster;
      options.overheads = cluster::lunar_criu_overhead_model();
    } else {
      options.substrate = core::Substrate::TraceReplay;
    }
    return options;
  };

  const auto table = bench::run_bench_sweep(spec, bench_options);
  const std::size_t repeats = table.axes[repeat_ax].values.size();

  std::printf("policy      live(min)  sim(min)  error%%\n");
  double max_error = 0.0;
  for (const auto& label : bench::evaluated_policies()) {
    double live_total = 0.0, sim_total = 0.0;
    for (const auto* row : table.where("policy", label)) {
      const bool live = table.label(*row, "substrate") == "live";
      (live ? live_total : sim_total) += row->minutes_to_target();
    }
    const double error =
        live_total > 0.0 ? 100.0 * std::fabs(sim_total - live_total) / live_total : 0.0;
    max_error = std::max(max_error, error);
    std::printf("%-10s  %9.1f  %8.1f  %6.2f\n", label.c_str(),
                live_total / static_cast<double>(repeats),
                sim_total / static_cast<double>(repeats), error);
  }
  std::printf("\nmax simulation error: %.2f%% (paper: 13%%)\n", max_error);
  return 0;
}
