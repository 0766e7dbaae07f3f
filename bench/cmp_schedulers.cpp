// Scheduler-zoo comparison (DESIGN.md §13): every registry policy — POP,
// HyperBand, ASHA, PBT and the run-to-completion Default — on the Fig. 7
// CIFAR-10 workload at equal budgets (same traces, same machine count, same
// experiment cap), via the idealized simulator so the difference is purely
// the decision rule. The --csv table is the per-policy time-to-target data
// (EXPERIMENTS.md): one row per (policy, repeat) cell.
#include "bench_common.hpp"

#include "core/generators/hyperparameter_generator.hpp"

#include <memory>

using namespace hyperdrive;

int main(int argc, char** argv) {
  const auto bench_options = bench::parse_bench_args(argc, argv);
  bench::print_header("Scheduler zoo", "time to 77% accuracy, CIFAR-10, 4 machines");

  const auto model = std::make_shared<workload::CifarWorkloadModel>();
  const std::vector<std::string> policies = {"pop", "hyperband", "asha", "pbt", "default"};

  // The Fig. 7 setup: one hyperparameter set, fresh training noise per
  // repeat (§6.1). A winner outside the first wave keeps scanning skill —
  // not first-batch luck — the measured quantity.
  const auto base = bench::suitable_trace(*model, 100, 2202, /*machines=*/4);

  core::SweepSpec spec;
  spec.name = "cmp_schedulers";
  const auto policy_ax = spec.add_policy_axis(policies);
  const auto repeat_ax = spec.add_repeat_axis(bench_options.repeats(10));
  spec.trace = [&](const core::SweepCell& cell) {
    return bench::renoise(*model, base, 0xF167 ^ cell.at(repeat_ax));
  };
  spec.policy = [&](const core::SweepCell& cell) {
    return core::make_standard_policy(policies[cell.at(policy_ax)], cell.at(repeat_ax));
  };
  spec.options = [&](const core::SweepCell& cell) {
    core::RunnerOptions options;
    options.substrate = core::Substrate::TraceReplay;
    options.machines = 4;
    options.seed = cell.at(repeat_ax);
    options.max_experiment_time = util::SimTime::hours(96);
    // PBT's exploit/explore continuation; inert for the other policies
    // (only clone_job consults it), so the shared hook keeps their event
    // streams byte-identical to a run without it.
    options.explore = core::make_model_explore(model);
    return options;
  };

  const auto table = bench::run_bench_sweep(spec, bench_options);
  const double repeats = static_cast<double>(table.axes[repeat_ax].values.size());

  for (const auto& label : policies) {
    std::size_t reached = 0;
    for (const auto* row : table.where("policy", label)) {
      if (row->result.reached_target) ++reached;
    }
    bench::print_box(label, table.minutes_where("policy", label), "min");
    std::printf("             reached target on %zu/%.0f repeats\n", reached, repeats);
  }

  const auto mean_of = [&](const std::string& label) {
    return util::mean(table.minutes_where("policy", label));
  };
  const double pop = mean_of("pop");
  std::printf("\nmean time-to-target vs POP: hyperband %.2fx, asha %.2fx, "
              "pbt %.2fx, default %.2fx\n",
              mean_of("hyperband") / pop, mean_of("asha") / pop, mean_of("pbt") / pop,
              mean_of("default") / pop);
  std::printf("(rank-at-budget rungs — hyperband/asha — kill slow-starting winners the\n"
              " Fig. 2b overtake regime rewards; POP's predicted-probability rule and\n"
              " PBT's exploit/explore both keep them alive by different means)\n");
  return 0;
}
