// Extension: straggler (fail-slow) intensity sweep. Gray failures — nodes
// that keep heartbeating but run slow — corrupt POP's time-based evidence:
// inflated epoch durations shrink the within-budget horizon and push viable
// configurations below the pruning confidence (a "wrong kill"), while
// promising configurations pinned on stragglers crawl to the target.
//
// This bench sweeps (fraction of slow nodes) x (slowdown factor) on the
// CIFAR POP sweep and reports, with the gray-failure layer (DESIGN.md §7)
// OFF vs ON: time-to-target, wrong kills against the ground-truth curve
// oracle, and the mitigation counters (quarantines, migrations).
#include "bench_common.hpp"

using namespace hyperdrive;

namespace {

struct Scenario {
  const char* label;
  std::size_t slow_nodes = 0;
  double factor = 1.0;
};

struct ArmResult {
  double minutes = 0.0;
  std::size_t reached = 0;
  std::size_t wrong_kills = 0;
  std::size_t quarantined = 0;
  std::size_t migrated = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const auto bench_options = bench::parse_bench_args(argc, argv);
  bench::print_header("Extension: straggler mitigation",
                      "CIFAR POP sweep with fail-slow nodes, gray-failure layer off vs on");

  workload::CifarWorkloadModel model;
  constexpr std::size_t kMachines = 8;

  const std::vector<Scenario> scenarios = {
      {"fault-free"},
      {"1/8 nodes 2x slow", 1, 2.0},
      {"1/8 nodes 4x slow", 1, 4.0},
      {"2/8 nodes 2x slow", 2, 2.0},
      {"2/8 nodes 4x slow", 2, 4.0},
      {"4/8 nodes 2x slow", 4, 2.0},
      {"4/8 nodes 4x slow", 4, 4.0},
  };

  core::SweepSpec spec;
  spec.name = "ext_straggler";
  std::vector<std::string> scenario_labels;
  for (const auto& s : scenarios) scenario_labels.push_back(s.label);
  const auto scenario_ax = spec.add_axis("scenario", scenario_labels);
  const auto mitigate_ax = spec.add_axis("mitigate", {"off", "on"});
  const auto repeat_ax = spec.add_repeat_axis(bench_options.repeats(5));
  spec.trace = [&](const core::SweepCell& cell) {
    return bench::suitable_trace(model, 100, 6200 + cell.at(repeat_ax) * 31, kMachines * 2);
  };
  spec.policy = [&](const core::SweepCell& cell) {
    // A budget with little slack over the fault-free time-to-target: this
    // is where slow-host-inflated epoch estimates turn into budget-driven
    // wrong kills unless the POP horizon is speed-normalized.
    return core::make_standard_policy("pop", cell.at(repeat_ax), util::SimTime::hours(4));
  };
  spec.options = [&](const core::SweepCell& cell) {
    const Scenario& s = scenarios[cell.at(scenario_ax)];
    const std::uint64_t r = cell.at(repeat_ax);
    core::RunnerOptions options;
    options.substrate = core::Substrate::Cluster;
    options.machines = kMachines;
    options.max_experiment_time = util::SimTime::hours(96);
    options.seed = r + 1;
    options.fault_plan.seed = 2000 + r;
    for (std::size_t m = 0; m < s.slow_nodes; ++m) {
      cluster::NodeSlowdownEvent slow;
      slow.machine = static_cast<cluster::MachineId>(m);
      slow.factor = s.factor;
      options.fault_plan.slowdowns.push_back(slow);
    }
    options.health.enabled = cell.at(mitigate_ax) == 1;
    return options;
  };

  const auto table = bench::run_bench_sweep(spec, bench_options);
  const int repeats = static_cast<int>(table.axes[repeat_ax].values.size());

  const auto arm_of = [&](const std::string& scenario, const std::string& mitigate) {
    ArmResult arm;
    for (const auto* row : table.where("scenario", scenario)) {
      if (table.label(*row, "mitigate") != mitigate) continue;
      arm.minutes += row->minutes_to_target();
      if (row->result.reached_target) ++arm.reached;
      arm.wrong_kills += row->result.recovery.wrong_kills;
      arm.quarantined += row->result.recovery.nodes_quarantined;
      arm.migrated += row->result.recovery.jobs_migrated;
    }
    arm.minutes /= repeats;
    return arm;
  };

  std::printf("  %-20s %12s %12s %11s %11s %7s %7s\n", "scenario", "ttt-off[min]",
              "ttt-on[min]", "wrongkill-off", "wrongkill-on", "quarant", "migrate");
  double free_minutes = 0.0;
  for (const auto& label : scenario_labels) {
    const ArmResult off = arm_of(label, "off");
    const ArmResult on = arm_of(label, "on");
    if (free_minutes == 0.0) free_minutes = off.minutes;
    std::printf("  %-20s %12.1f %12.1f %13zu %12zu %7zu %7zu", label.c_str(), off.minutes,
                on.minutes, off.wrong_kills, on.wrong_kills, on.quarantined,
                on.migrated);
    if (off.reached < static_cast<std::size_t>(repeats) ||
        on.reached < static_cast<std::size_t>(repeats)) {
      std::printf("  (off %zu/%d, on %zu/%d reached)", off.reached, repeats,
                  on.reached, repeats);
    }
    std::printf("\n");
  }

  std::printf(
      "\n  Fail-slow nodes are invisible to crash-style fault tolerance: the\n"
      "  node keeps acking, so only the EWMA speed score + quarantine +\n"
      "  migration layer (ttt-on) recovers the time-to-target gap and turns\n"
      "  budget-driven wrong kills back into zero. The tradeoff is capacity:\n"
      "  once half the cluster is (mildly) slow, quarantining it costs more\n"
      "  than the slowdown itself — detection thresholds assume stragglers\n"
      "  are the minority, as in the fleet studies DESIGN.md §7 cites.\n");
  return 0;
}
