// Figure 4: POP's resource-allocation internals over an experiment's
// lifetime.
//   4a: desired vs deserved slot curves early in the experiment (low
//       confidence -> crossing at a small S_effective).
//   4b: the same curves late (confidence has grown -> crossing higher).
//   4c: the ratio of promising to active jobs rising over time.
#include "bench_common.hpp"

#include "core/policies/pop_policy.hpp"
#include "sim/trace_replay.hpp"

using namespace hyperdrive;

namespace {

void print_snapshot(const core::PopSnapshot& snap) {
  std::printf("  t=%.1f min, active=%zu (scheduled=%zu), with-confidence=%zu, "
              "p*=%.3f, S_eff=%.2f, promising=%zu\n",
              snap.time.to_minutes(), snap.active_jobs, snap.scheduled_jobs,
              snap.jobs_with_confidence, snap.threshold, snap.effective_slots,
              snap.promising_jobs);
  std::printf("      p      S_desired  S_deserved\n");
  for (const auto& row : snap.curves) {
    std::printf("    %.3f    %6.1f     %6.2f\n", row[0], row[1], row[2]);
  }
}

}  // namespace

int main(int argc, char** argv) {
  (void)bench::parse_bench_args(argc, argv);  // no sweep: the flags change nothing here
  bench::print_header("Figure 4", "POP desired/deserved slots and promising ratio");

  workload::CifarWorkloadModel model;
  const auto trace = bench::reachable_trace(model, 100, 446);

  core::PopConfig config;
  config.tmax = util::SimTime::hours(48);
  config.predictor = core::make_default_predictor(4);
  config.record_allocation_curves = true;
  core::PopPolicy policy(config);

  sim::ReplayOptions options;
  options.machines = 4;
  options.stop_on_target = true;
  const auto result = sim::replay_experiment(trace, policy, options);

  const auto& snapshots = policy.snapshots();
  if (snapshots.empty()) {
    std::printf("no classification rounds recorded\n");
    return 1;
  }

  std::printf("\n-- Figure 4a: early-experiment snapshot --\n");
  // First snapshot with at least a few confident jobs.
  const core::PopSnapshot* early = &snapshots.front();
  for (const auto& s : snapshots) {
    if (s.jobs_with_confidence >= 3) {
      early = &s;
      break;
    }
  }
  print_snapshot(*early);

  std::printf("\n-- Figure 4b: late-experiment snapshot --\n");
  print_snapshot(snapshots.back());

  std::printf("\n-- Figure 4c: promising/running ratio over time --\n");
  std::printf("  time_min  promising  running  ratio\n");
  const std::size_t stride = std::max<std::size_t>(1, snapshots.size() / 25);
  for (std::size_t i = 0; i < snapshots.size(); i += stride) {
    const auto& s = snapshots[i];
    const double ratio = s.running_jobs > 0 ? static_cast<double>(s.promising_jobs) /
                                                    static_cast<double>(s.running_jobs)
                                              : 0.0;
    std::printf("  %8.1f  %9zu  %9zu  %.3f\n", s.time.to_minutes(), s.promising_jobs,
                s.running_jobs, ratio);
  }

  // The paper's qualitative claim: exploitation share grows over time.
  const auto& first = *early;
  const auto& last = snapshots.back();
  const double early_ratio = first.running_jobs > 0
                                 ? static_cast<double>(first.promising_jobs) /
                                       static_cast<double>(first.running_jobs)
                                 : 0.0;
  const double late_ratio = last.running_jobs > 0
                                ? static_cast<double>(last.promising_jobs) /
                                      static_cast<double>(last.running_jobs)
                                : 0.0;
  std::printf("\nearly ratio=%.3f -> late ratio=%.3f (paper: rises toward ~0.8)\n",
              early_ratio, late_ratio);
  std::printf("experiment reached target: %d at t=%.1f min\n", result.reached_target,
              result.time_to_target.to_minutes());
  return 0;
}
