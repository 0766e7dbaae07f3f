// Trace tooling (paper §7.1 "Trace Generator"): freeze a workload into a
// replayable CSV trace, reload it, shuffle the configuration order, and
// replay it under a policy — the workflow behind the sensitivity studies.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/experiment_runner.hpp"
#include "core/policies/default_policy.hpp"
#include "workload/cifar_model.hpp"

using namespace hyperdrive;

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : std::string("/tmp/hyperdrive_cifar_trace.csv");

  // 1. Generate and save.
  workload::CifarWorkloadModel model;
  const auto trace = workload::generate_trace(model, 30, /*seed=*/5);
  {
    std::ofstream out(path);
    trace.save_csv(out);
  }
  std::printf("wrote %zu jobs x %zu epochs to %s\n", trace.jobs.size(), trace.max_epochs,
              path.c_str());

  // 2. Reload (the scheduler only needs curves + metadata, not the configs).
  std::ifstream in(path);
  const auto loaded = workload::Trace::load_csv(in, "cifar10", model.target_performance(),
                                          model.kill_threshold(),
                                          model.evaluation_boundary());
  std::printf("reloaded %zu jobs; target reachable: %s\n", loaded.jobs.size(),
              loaded.target_reachable() ? "yes" : "no");

  // 3. Replay the original and a shuffled order under the Default policy.
  util::Rng rng(99);
  const workload::Trace shuffled = loaded.shuffled(rng);

  for (const workload::Trace* t : {&loaded, &shuffled}) {
    core::DefaultPolicy policy;
    sim::ReplayOptions options;
    options.machines = 4;
    const auto result = sim::replay_experiment(*t, policy, options);
    std::printf("replay (%s order): %s\n", t == &loaded ? "original" : "shuffled",
                result.reached_target
                    ? util::format_duration(result.time_to_target).c_str()
                    : "target not reached");
  }
  std::printf("(configuration order changes time-to-target for order-sensitive\n"
              " policies — the effect Figure 12c quantifies)\n");
  return 0;
}
