// Figure 12b: sensitivity to resource capacity — time to the 77% CIFAR-10
// target under 5 / 10 / 15 / 25 machines for all four policies, via the
// trace-driven simulator. Paper: everyone improves with more machines, POP
// is always best, and its margin grows with capacity.
#include "bench_common.hpp"

using namespace hyperdrive;

int main(int argc, char** argv) {
  const auto bench_options = bench::parse_bench_args(argc, argv);
  bench::print_header("Figure 12b", "time to target vs machine count (CIFAR-10, simulator)");

  workload::CifarWorkloadModel model;
  const std::vector<std::size_t> capacities = {5, 10, 15, 25};

  core::SweepSpec spec;
  spec.name = "fig12b_resource_capacity";
  std::vector<std::string> capacity_labels;
  for (const std::size_t m : capacities) capacity_labels.push_back(std::to_string(m));
  const auto machines_ax = spec.add_axis("machines", capacity_labels);
  const auto policy_ax = spec.add_policy_axis(bench::all_policies());
  const auto repeat_ax = spec.add_repeat_axis(bench_options.repeats(5));
  spec.run = [&](const core::SweepCell& cell) {
    // Winner outside the first wave at every tested capacity, so the
    // policies' scanning efficiency (not first-batch luck) is measured.
    const auto trace = bench::suitable_trace(model, 100, 1200 + cell.at(repeat_ax) * 37, 25);
    const auto policy = core::make_standard_policy(bench::all_policies()[cell.at(policy_ax)],
                                                   cell.at(repeat_ax));
    core::RunnerOptions options;
    options.substrate = core::Substrate::TraceReplay;
    options.machines = capacities[cell.at(machines_ax)];
    options.max_experiment_time = util::SimTime::hours(200);
    return core::run_experiment(trace, *policy, options);
  };

  const auto table = bench::run_bench_sweep(spec, bench_options);

  std::printf("machines |");
  for (const auto& label : bench::all_policies()) {
    std::printf(" %10s", label.c_str());
  }
  std::printf("   (mean minutes to target)\n");

  for (const auto& capacity : capacity_labels) {
    std::printf("%8s |", capacity.c_str());
    double pop_mean = 0.0;
    std::vector<double> others;
    for (const auto& label : bench::all_policies()) {
      std::vector<double> minutes;
      for (const auto* row : table.where("machines", capacity)) {
        if (table.label(*row, "policy") == label) minutes.push_back(row->minutes_to_target());
      }
      const double mean = util::mean(minutes);
      if (label == "pop") pop_mean = mean; else others.push_back(mean);
      std::printf(" %10.1f", mean);
    }
    std::printf("   pop lead over 2nd-best %.2fx\n", util::min_of(others) / pop_mean);
  }
  return 0;
}
