// Extension bench (§1 motivation): hyperparameter exploration at
// ImageNet22k scale — "up to ten days to train to convergence using 62
// machines" [8]. With multi-hour epochs, every configuration a scheduler
// does NOT run to completion saves machine-days; the bench reports time and
// machine-days to a 35% top-1 target across the policies.
#include "bench_common.hpp"

#include "workload/imagenet_model.hpp"

using namespace hyperdrive;

int main(int argc, char** argv) {
  const auto bench_options = bench::parse_bench_args(argc, argv);
  bench::print_header("Extension scale",
                      "ImageNet22k-scale exploration, 62 machine-partitions");

  workload::ImagenetWorkloadModel model;

  // Sanity: the intro's framing. A single good configuration to convergence:
  {
    const auto trace = bench::reachable_trace(model, 64, 1);
    double best_days = 0.0;
    for (const auto& job : trace.jobs) {
      if (job.curve.first_epoch_reaching(model.target_performance()) != 0) {
        best_days = job.curve.epoch_duration.to_hours() *
                    static_cast<double>(job.curve.max_epochs()) / 24.0;
        break;
      }
    }
    std::printf("one full training run of a winning config: %.1f days "
                "(paper: up to 10 days)\n\n",
                best_days);
  }

  core::SweepSpec spec;
  spec.name = "ext_scale_imagenet";
  const auto policy_ax = spec.add_policy_axis(bench::all_policies());
  const auto repeat_ax = spec.add_repeat_axis(bench_options.repeats(3));
  spec.run = [&](const core::SweepCell& cell) {
    const auto trace = bench::reachable_trace(model, 64, 3100 + cell.at(repeat_ax) * 71);
    const auto policy = core::make_standard_policy(bench::all_policies()[cell.at(policy_ax)],
                                                   cell.at(repeat_ax));
    core::RunnerOptions options;
    options.substrate = core::Substrate::TraceReplay;
    options.machines = 62;
    options.max_experiment_time = util::SimTime::hours(24 * 365);
    return core::run_experiment(trace, *policy, options);
  };

  const auto table = bench::run_bench_sweep(spec, bench_options);
  const double repeats = static_cast<double>(table.axes[repeat_ax].values.size());

  std::printf("%-10s %16s %18s\n", "policy", "time-to-35%(days)", "machine-days spent");
  for (const auto& label : bench::all_policies()) {
    double days_total = 0.0, machine_days_total = 0.0;
    for (const auto* row : table.where("policy", label)) {
      days_total += row->hours_to_target() / 24.0;
      machine_days_total += row->result.total_machine_time.to_hours() / 24.0;
    }
    std::printf("%-10s %16.2f %18.1f\n", label.c_str(), days_total / repeats,
                machine_days_total / repeats);
  }
  std::printf("\n(at multi-hour epochs the machine-days saved by early termination\n"
              " dwarf all scheduling overheads — the paper's core economic argument)\n");
  return 0;
}
