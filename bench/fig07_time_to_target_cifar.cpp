// Figure 7: time to reach the 77% target validation accuracy on CIFAR-10
// with 4 machines, repeated 10 times per policy (box plots). Paper: POP
// averages 2.8 h vs Bandit 4.5 h (1.6x) and EarlyTerm 6.1 h (2.1x), with a
// much smaller min-max spread; POP's worst run beats the others' best.
#include "bench_common.hpp"

using namespace hyperdrive;

int main(int argc, char** argv) {
  const auto bench_options = bench::parse_bench_args(argc, argv);
  bench::print_header("Figure 7", "time to 77% accuracy, CIFAR-10, 4 machines, 10 repeats");

  workload::CifarWorkloadModel model;
  const std::size_t repeats = bench_options.repeats(10);

  // One hyperparameter set (same random-search HG + seed, §6.1), repeated
  // with fresh training noise per repeat.
  const auto base = bench::suitable_trace(model, 100, 2202, /*machines=*/4);

  core::SweepSpec spec;
  spec.name = "fig07_time_to_target_cifar";
  const auto policy_ax = spec.add_policy_axis(bench::all_policies());
  const auto repeat_ax = spec.add_repeat_axis(repeats);
  spec.run = [&](const core::SweepCell& cell) {
    const auto trace = bench::renoise(model, base, 0xF167 ^ cell.at(repeat_ax));
    const auto policy = core::make_standard_policy(bench::all_policies()[cell.at(policy_ax)],
                                                   cell.at(repeat_ax));
    core::RunnerOptions options;
    options.machines = 4;
    options.substrate = core::Substrate::Cluster;
    options.overheads = cluster::cifar_overhead_model();
    options.seed = cell.at(repeat_ax);
    options.max_experiment_time = util::SimTime::hours(96);
    return core::run_experiment(trace, *policy, options);
  };

  const auto table = bench::run_bench_sweep(spec, bench_options);

  for (const auto& label : bench::all_policies()) {
    bench::print_box(label, table.minutes_where("policy", label), "min");
  }

  // Speedups keyed by policy label (never by all_policies() position).
  const auto mean_of = [&](const std::string& label) {
    return util::mean(table.minutes_where("policy", label));
  };
  const double pop = mean_of("pop");
  std::printf("\nspeedups (mean): POP vs Bandit %.2fx (paper 1.6x), "
              "POP vs EarlyTerm %.2fx (paper 2.1x), POP vs Default %.2fx (paper up to 6.7x)\n",
              mean_of("bandit") / pop, mean_of("earlyterm") / pop,
              mean_of("default") / pop);
  return 0;
}
