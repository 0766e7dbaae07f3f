// Quickstart: explore hyperparameters of a CIFAR-10-like workload with the
// POP scheduling policy on a simulated 4-machine cluster.
//
//   $ ./quickstart
//
// Walkthrough:
//   1. Pick a workload model (the synthetic stand-in for live training).
//   2. Draw candidate configurations with a Hyperparameter Generator.
//   3. Choose a scheduling policy (POP here) and an execution substrate.
//   4. Run and inspect the result.
#include <cstdio>

#include "core/experiment_runner.hpp"
#include "core/policy_registry.hpp"
#include "workload/cifar_model.hpp"

using namespace hyperdrive;

int main() {
  // 1. The workload: 14 hyperparameters, 120 one-minute epochs, accuracy
  //    target 77%, kill threshold 15% (domain knowledge).
  workload::CifarWorkloadModel model;

  // 2. 100 candidate configurations from random search (§4.2 ➁). The same
  //    generator seed always yields the same candidate set. Re-roll until the
  //    set both contains a target-reaching configuration and actually
  //    requires search (no winner in the very first scheduling wave).
  workload::Trace trace;
  for (std::uint64_t seed = 7;; ++seed) {
    const auto generator = core::make_random_generator(model.space(), seed);
    trace = core::trace_from_generator(model, *generator, /*num_configs=*/100,
                                       /*experiment_seed=*/1);
    if (!trace.target_reachable()) continue;
    std::size_t winner_index = 0;
    while (trace.jobs[winner_index].curve.first_epoch_reaching(
               trace.target_performance) == 0) {
      ++winner_index;
    }
    if (winner_index >= 8) break;
  }
  std::printf("drew %zu configurations; target accuracy %.0f%%\n", trace.jobs.size(),
              100.0 * trace.target_performance);

  // 3. POP with the fast learning-curve predictor and the user's 24-hour
  //    time budget, on the high-fidelity cluster substrate (suspend/resume +
  //    messaging overheads modelled).
  const auto pop = core::make_standard_policy("pop", /*seed=*/1, util::SimTime::hours(24));

  core::RunnerOptions options;
  options.substrate = core::Substrate::Cluster;
  options.machines = 4;
  options.max_experiment_time = util::SimTime::hours(24);

  // 4. Run.
  const auto result = core::run_experiment(trace, *pop, options);
  if (result.reached_target) {
    std::printf("reached %.1f%% accuracy after %s (configuration #%llu)\n",
                100.0 * result.best_perf,
                util::format_duration(result.time_to_target).c_str(),
                static_cast<unsigned long long>(result.winning_job));
  } else {
    std::printf("target not reached within budget; best accuracy %.1f%%\n",
                100.0 * result.best_perf);
  }
  std::printf("jobs started: %zu, terminated early: %zu, suspended: %zu times\n",
              result.jobs_started, result.terminations, result.suspends);
  std::printf("total machine time spent: %s\n",
              util::format_duration(result.total_machine_time).c_str());

  // For comparison: the same candidate set under naive full execution.
  const auto naive = core::make_standard_policy("default", /*seed=*/1);
  const auto baseline = core::run_experiment(trace, *naive, options);
  if (result.reached_target && baseline.reached_target) {
    std::printf("speedup over run-everything-to-completion: %.1fx\n",
                baseline.time_to_target / result.time_to_target);
  }
  return 0;
}
