// Reinforcement-learning scenario (paper §6.3): LunarLander-like DQN sweep.
// Demonstrates the domain-knowledge hooks the SAP API exposes for RL tasks:
//   * min-max reward normalization (Eq. 4, rewards in [-500, 300]),
//   * a "solved" target (sustained average reward of 200),
//   * a non-learning kill threshold at the crash reward (-100),
//   * learning-crash dynamics that make instantaneous-best policies unsafe.
#include <cstdio>
#include <string>

#include "core/experiment_runner.hpp"
#include "core/policy_registry.hpp"
#include "workload/lunar_model.hpp"

using namespace hyperdrive;

int main() {
  workload::LunarWorkloadModel model;
  std::printf("LunarLander domain knowledge:\n");
  std::printf("  reward range [-500, 300] -> normalized [0, 1] (Eq. 4)\n");
  std::printf("  solved   = reward %.0f sustained  -> normalized target %.3f\n",
              200.0, model.target_performance());
  std::printf("  crash    = reward %.0f             -> kill threshold %.3f\n", -100.0,
              model.kill_threshold());
  std::printf("  boundary = %zu epochs (2000 episode trials)\n\n",
              model.evaluation_boundary());

  auto trace = workload::generate_trace(model, 100, /*seed=*/17);
  std::uint64_t seed = 17;
  while (!trace.target_reachable()) {
    trace = workload::generate_trace(model, 100, ++seed);
  }

  std::size_t crashes = 0;
  for (const auto& job : trace.jobs) {
    const double best = job.curve.denormalize(job.curve.best_perf());
    const double last = job.curve.denormalize(job.curve.final_perf());
    if (best > -20.0 && last <= -100.0) ++crashes;
  }
  std::printf("candidate set: %zu configs, %zu of them learning-crash mid-training\n\n",
              trace.jobs.size(), crashes);

  for (const std::string name : {"pop", "bandit"}) {
    const auto policy = core::make_standard_policy(name, /*seed=*/5, util::SimTime::hours(24));

    core::RunnerOptions options;
    options.substrate = core::Substrate::Cluster;
    options.machines = 15;
    // RL suspend/resume goes through whole-process CRIU snapshots.
    options.overheads = cluster::lunar_criu_overhead_model();
    options.max_experiment_time = util::SimTime::hours(24);

    const auto result = core::run_experiment(trace, *policy, options);
    std::printf("%-8s: ", name.c_str());
    if (result.reached_target) {
      std::printf("solved in %s (config #%llu), %zu early terminations\n",
                  util::format_duration(result.time_to_target).c_str(),
                  static_cast<unsigned long long>(result.winning_job),
                  result.terminations);
    } else {
      std::printf("not solved; best sustained reward %.0f\n",
                  trace.jobs.front().curve.denormalize(result.best_perf));
    }
    if (!result.suspend_samples.empty()) {
      double max_latency = 0.0, max_size = 0.0;
      for (const auto& s : result.suspend_samples) {
        max_latency = std::max(max_latency, s.latency.to_seconds());
        max_size = std::max(max_size, s.snapshot_bytes);
      }
      std::printf("          CRIU snapshots: %zu, max latency %.1f s, max size %.1f MB\n",
                  result.suspend_samples.size(), max_latency, max_size / 1e6);
    }
  }

  std::printf("\nBandit trusts a job's best-so-far reward, so a configuration that\n"
              "peaked before a learning-crash keeps its machine; POP's kill threshold\n"
              "reclaims it as soon as the reward falls back into the crash range.\n");
  return 0;
}
