// §5.2 "Overlap training and prediction": the paper's Node Agents start a
// learning-curve prediction in parallel with training rather than blocking
// the job, arguing "the end-to-end performance gains outweigh any slowdown
// ... due to resource contention".
//
// This bench quantifies that choice on the cluster substrate: the same POP
// experiment with a realistic per-boundary prediction cost (tens of seconds
// of MCMC on the node agent), decided either overlapped (training continues,
// late suspend/terminate discards the partial epoch) or blocking (the
// machine holds the job idle until the decision arrives).
#include "bench_common.hpp"

using namespace hyperdrive;

int main(int argc, char** argv) {
  const auto bench_options = bench::parse_bench_args(argc, argv);
  bench::print_header("Extension §5.2", "overlapped vs blocking curve prediction (POP)");

  workload::CifarWorkloadModel model;

  // Prediction cost model: the reduced 70k-sample MCMC takes O(10s) per
  // curve on a worker core (see tab_mcmc_samples); spread lognormally.
  const auto prediction_cost = [](core::JobId, std::size_t, util::Rng& rng) {
    return util::SimTime::seconds(std::clamp(rng.lognormal(3.4, 0.4), 10.0, 120.0));
  };

  core::SweepSpec spec;
  spec.name = "ext_overlap_prediction";
  const auto mode_ax = spec.add_axis("mode", {"free", "overlapped", "blocking"});
  const auto repeat_ax = spec.add_repeat_axis(bench_options.repeats(5));
  spec.run = [&](const core::SweepCell& cell) {
    const auto trace = bench::suitable_trace(model, 100, 2800 + cell.at(repeat_ax) * 53, 8);
    const auto policy = core::make_standard_policy("pop", cell.at(repeat_ax));
    const std::size_t mode = cell.at(mode_ax);
    core::RunnerOptions options;
    options.substrate = core::Substrate::Cluster;
    options.machines = 4;
    options.max_experiment_time = util::SimTime::hours(96);
    options.seed = cell.at(repeat_ax);
    if (mode > 0) options.decision_latency = prediction_cost;
    options.overlap_decisions = mode != 2;
    return core::run_experiment(trace, *policy, options);
  };

  const auto table = bench::run_bench_sweep(spec, bench_options);
  const double repeats = static_cast<double>(table.axes[repeat_ax].values.size());

  const auto total_of = [&](const std::string& mode) {
    double minutes = 0.0;
    for (const auto* row : table.where("mode", mode)) minutes += row->minutes_to_target();
    return minutes;
  };
  const double free_total = total_of("free");
  const double overlapped_total = total_of("overlapped");
  const double blocking_total = total_of("blocking");

  std::printf("  free predictions (idealized):   %8.1f min avg\n", free_total / repeats);
  std::printf("  overlapped predictions (§5.2):  %8.1f min avg (+%.1f%% vs free)\n",
              overlapped_total / repeats,
              100.0 * (overlapped_total - free_total) / free_total);
  std::printf("  blocking predictions (naive):   %8.1f min avg (+%.1f%% vs free)\n",
              blocking_total / repeats, 100.0 * (blocking_total - free_total) / free_total);
  std::printf("\n  overlap saves %.1f%% of end-to-end time vs blocking "
              "(paper: gains outweigh the slowdown)\n",
              100.0 * (blocking_total - overlapped_total) / blocking_total);
  return 0;
}
