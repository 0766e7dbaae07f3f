// Figure 9: time to reach the LunarLander solved condition (sustained
// average reward of 200) with 15 machines, repeated 5 times per policy.
// Paper: POP's median is 2.07x faster than Bandit and 1.26x faster than
// EarlyTerm, with variance 9.7x / 3.5x smaller.
#include "bench_common.hpp"

using namespace hyperdrive;

int main(int argc, char** argv) {
  const auto bench_options = bench::parse_bench_args(argc, argv);
  bench::print_header("Figure 9", "time to solved reward, LunarLander, 15 machines, 5 repeats");

  workload::LunarWorkloadModel model;

  // One hyperparameter set, five repeats with fresh training noise (§6.1).
  const auto base = bench::suitable_trace(model, 100, 2000, /*machines=*/15);

  core::SweepSpec spec;
  spec.name = "fig09_time_to_target_lunar";
  const auto policy_ax = spec.add_policy_axis(bench::evaluated_policies());
  const auto repeat_ax = spec.add_repeat_axis(bench_options.repeats(5));
  spec.run = [&](const core::SweepCell& cell) {
    const auto trace = bench::renoise(model, base, 0xF169 ^ cell.at(repeat_ax));
    const auto policy = core::make_standard_policy(
        bench::evaluated_policies()[cell.at(policy_ax)], cell.at(repeat_ax));
    core::RunnerOptions options;
    options.machines = 15;
    options.substrate = core::Substrate::Cluster;
    options.overheads = cluster::lunar_criu_overhead_model();
    options.seed = cell.at(repeat_ax);
    options.max_experiment_time = util::SimTime::hours(96);
    return core::run_experiment(trace, *policy, options);
  };

  const auto table = bench::run_bench_sweep(spec, bench_options);

  // Keyed by policy label — never by evaluated_policies() position.
  const auto minutes_of = [&](const std::string& label) {
    return table.minutes_where("policy", label);
  };
  for (const auto& label : bench::evaluated_policies()) {
    bench::print_box(label, minutes_of(label), "min");
  }

  const auto pop = minutes_of("pop");
  const auto bandit = minutes_of("bandit");
  const auto earlyterm = minutes_of("earlyterm");
  std::printf("\nmedian speedups: POP vs Bandit %.2fx (paper 2.07x), "
              "POP vs EarlyTerm %.2fx (paper 1.26x)\n",
              util::median(bandit) / util::median(pop),
              util::median(earlyterm) / util::median(pop));
  if (util::variance(pop) > 0.0) {
    std::printf("variance ratios: Bandit/POP %.1fx (paper 9.7x), EarlyTerm/POP %.1fx "
                "(paper 3.5x)\n",
                util::variance(bandit) / util::variance(pop),
                util::variance(earlyterm) / util::variance(pop));
  }
  return 0;
}
