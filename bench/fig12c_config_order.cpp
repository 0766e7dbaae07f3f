// Figure 12c: sensitivity to configuration order — CDF of time to the
// CIFAR-10 target across 25 random configuration orders on 5 machines.
// Paper: POP dominates at every percentile and has a far smaller spread
// (4.05 h max-min vs 8.33 Bandit, 8.50 EarlyTerm, 25.74 Default).
#include "bench_common.hpp"

using namespace hyperdrive;

int main(int argc, char** argv) {
  const auto bench_options = bench::parse_bench_args(argc, argv);
  bench::print_header("Figure 12c", "time-to-target CDF over 25 random config orders");

  workload::CifarWorkloadModel model;
  const auto base_trace = bench::reachable_trace(model, 100, 4242);
  util::Rng order_rng(777);

  // Pre-generate the 25 orders so every policy sees the same ones.
  std::vector<workload::Trace> orders;
  orders.push_back(base_trace);
  for (int i = 1; i < 25; ++i) orders.push_back(base_trace.shuffled(order_rng));

  core::SweepSpec spec;
  spec.name = "fig12c_config_order";
  const auto policy_ax = spec.add_policy_axis(bench::all_policies());
  std::vector<std::string> order_labels;
  for (std::size_t i = 0; i < orders.size(); ++i) order_labels.push_back(std::to_string(i));
  const auto order_ax = spec.add_axis("order", order_labels);
  spec.run = [&](const core::SweepCell& cell) {
    const auto policy = core::make_standard_policy(bench::all_policies()[cell.at(policy_ax)],
                                                   cell.at(order_ax));
    core::RunnerOptions options;
    options.substrate = core::Substrate::TraceReplay;
    options.machines = 5;
    options.max_experiment_time = util::SimTime::hours(200);
    return core::run_experiment(orders[cell.at(order_ax)], *policy, options);
  };

  const auto table = bench::run_bench_sweep(spec, bench_options);

  std::printf("policy      spread(h)\n");
  for (const auto& label : bench::all_policies()) {
    const auto hours = core::SweepTable::collect(
        table.where("policy", label),
        [](const core::SweepRow& row) { return row.hours_to_target(); });
    bench::print_ecdf(label, hours, "h");
    std::printf("             max-min spread: %.2f h\n",
                util::max_of(hours) - util::min_of(hours));
  }
  std::printf("\n(paper spreads: POP 4.05 h, Bandit 8.33 h, EarlyTerm 8.50 h, "
              "Default 25.74 h)\n");
  return 0;
}
