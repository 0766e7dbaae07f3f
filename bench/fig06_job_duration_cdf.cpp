// Figure 6: distribution of per-job execution durations under POP, Bandit
// and EarlyTerm on the CIFAR-10 workload. Paper: Bandit and EarlyTerm spend
// >= 30 minutes on ~15% of jobs, POP on only ~5% — POP wastes far less time
// on less-promising jobs.
#include "bench_common.hpp"

using namespace hyperdrive;

int main(int argc, char** argv) {
  const auto bench_options = bench::parse_bench_args(argc, argv);
  bench::print_header("Figure 6", "job execution duration CDF (CIFAR-10, 4 machines)");

  workload::CifarWorkloadModel model;

  core::SweepSpec spec;
  spec.name = "fig06_job_duration_cdf";
  const auto policy_ax = spec.add_policy_axis(bench::evaluated_policies());
  const auto repeat_ax = spec.add_repeat_axis(bench_options.repeats(5));
  spec.trace = [&](const core::SweepCell& cell) {
    return bench::reachable_trace(model, 100, 600 + cell.at(repeat_ax) * 13);
  };
  spec.policy = [&](const core::SweepCell& cell) {
    return core::make_standard_policy(bench::evaluated_policies()[cell.at(policy_ax)],
                                      cell.at(repeat_ax));
  };
  spec.options = [&](const core::SweepCell& cell) {
    core::RunnerOptions options;
    options.machines = 4;
    options.substrate = core::Substrate::Cluster;
    options.seed = cell.at(repeat_ax);
    options.max_experiment_time = util::SimTime::hours(48);
    return options;
  };

  const auto table = bench::run_bench_sweep(spec, bench_options);

  for (const auto& label : bench::evaluated_policies()) {
    // Aggregate across the experiment repetitions for a smooth CDF. Jobs
    // never scheduled before the experiment stopped count as zero execution
    // time: Fig. 6 is a distribution over the whole set.
    std::vector<double> durations_min;
    double over30 = 0.0, total = 0.0;
    for (const auto* row : table.where("policy", label)) {
      for (const auto& js : row->result.job_stats) {
        durations_min.push_back(js.execution_time.to_minutes());
        total += 1.0;
        if (js.execution_time >= util::SimTime::minutes(30)) over30 += 1.0;
      }
    }
    bench::print_ecdf(label, durations_min, "min");
    std::printf("             jobs running >= 30 min: %.1f%%\n",
                total > 0 ? 100.0 * over30 / total : 0.0);
  }
  std::printf("\n(paper: POP ~5%% of jobs >= 30 min vs ~15%% for Bandit/EarlyTerm)\n");
  return 0;
}
