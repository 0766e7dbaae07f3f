// Development tool: per-trace policy comparison to understand variance of
// the fixed-configuration experiments across base-trace draws. Shares the
// cli::Options flag table with hyperdrive_cli, so --help is generated and
// the defaults are visible in one place.
#include <cstdio>
#include <vector>

#include "core/experiment_runner.hpp"
#include "core/policy_registry.hpp"
#include "core/sweep_engine.hpp"
#include "util/cli_options.hpp"
#include "workload/cifar_model.hpp"
#include "workload/lunar_model.hpp"
#include "workload/trace_tools.hpp"

using namespace hyperdrive;

namespace {

struct ToolConfig {
  std::size_t traces = 8;
  std::size_t configs = 100;
  /// Machine counts to sweep (repeatable flag; defaults to 5 and 25).
  std::vector<std::size_t> machines;
  /// Registry policy names to compare (repeatable flag; defaults to the
  /// paper's four).
  std::vector<std::string> policies;
};

void sweep(const workload::WorkloadModel& model, const ToolConfig& config,
           std::size_t machines) {
  std::printf("== %s (%zu machines) ==\n", std::string(model.name()).c_str(), machines);
  std::printf("trace |");
  for (const auto& name : config.policies) std::printf(" %9s", name.c_str());
  std::printf(" | winner_idx\n");

  std::vector<workload::Trace> traces;
  std::vector<std::string> trace_labels;
  for (std::uint64_t t = 0; t < config.traces; ++t) {
    traces.push_back(
        workload::suitable_trace(model, config.configs, 1200 + t * 37, machines));
    trace_labels.push_back(std::to_string(t));
  }

  core::SweepSpec spec;
  spec.name = "trace_sweep";
  const auto trace_ax = spec.add_axis("trace", trace_labels);
  const auto policy_ax = spec.add_policy_axis(config.policies);
  spec.run = [&](const core::SweepCell& cell) {
    const auto policy =
        core::make_standard_policy(config.policies[cell.at(policy_ax)], cell.at(trace_ax));
    core::RunnerOptions options;
    options.machines = machines;
    options.max_experiment_time = util::SimTime::hours(96);
    return core::run_experiment(traces[cell.at(trace_ax)], *policy, options);
  };

  const auto table = core::run_sweep(spec);

  for (std::size_t t = 0; t < traces.size(); ++t) {
    std::printf("%5llu |", static_cast<unsigned long long>(t));
    for (const auto* row : table.where("trace", trace_labels[t])) {
      std::printf(" %9.0f", row->result.reached_target
                                ? row->result.time_to_target.to_minutes()
                                : -1.0);
    }
    std::printf(" | %zu\n", workload::first_winner_index(traces[t]));
  }
}

}  // namespace

int main(int argc, char** argv) {
  ToolConfig config;
  cli::Options options("trace_sweep",
                       "per-trace policy comparison across base-trace draws");
  options.section("sweep (defaults in brackets)");
  options.bind("--traces", "N", "base-trace draws per table  [8]", config.traces);
  options.bind("--configs", "N", "configurations per trace  [100]", config.configs);
  options.add("--machines", "N",
              "machine count to sweep (repeatable)  [5 and 25]",
              [&config](const std::string& text) {
                std::uint64_t n = 0;
                if (!cli::Options::parse_uint(text, n) || n == 0) return false;
                config.machines.push_back(static_cast<std::size_t>(n));
                return true;
              });
  options.add("--policy", "NAME",
              "registry policy to compare (repeatable): " +
                  core::PolicyRegistry::instance().name_list('|') +
                  "  [pop bandit earlyterm default]",
              [&config](const std::string& name) {
                if (!core::PolicyRegistry::instance().has(name)) return false;
                config.policies.push_back(name);
                return true;
              });
  if (!options.parse(argc, argv)) return 2;
  if (config.machines.empty()) config.machines = {5, 25};
  if (config.policies.empty()) config.policies = {"pop", "bandit", "earlyterm", "default"};

  for (const std::size_t machines : config.machines) {
    sweep(workload::CifarWorkloadModel{}, config, machines);
  }
  return 0;
}
