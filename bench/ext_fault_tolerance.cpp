// Extension: fault tolerance of the reliability protocol. The paper's
// production deployment treats HyperDrive as a long-running service, so the
// cluster model grew a fault-injection subsystem (DESIGN.md "Fault model &
// recovery"): seeded message drop/duplication/delay, node crashes with
// optional restart, and snapshot upload failure/corruption, survived by
// ack/retransmit + dedup, crash requeue from the last durable snapshot, and
// history replay from the AppStat database.
//
// This bench sweeps fault intensity on the same CIFAR POP sweep and reports
// the price of recovery: time-to-target degradation vs the fault-free run,
// the recovery counters, and the RPC overhead the retries add.
#include "bench_common.hpp"

using namespace hyperdrive;

namespace {

struct Scenario {
  const char* label;
  double drop = 0.0;
  bool crash = false;          // one mid-run crash of machine 2...
  bool restart = false;        // ...restarting 30 simulated minutes later
  double snapshot_fail = 0.0;  // capture/upload abort probability
};

}  // namespace

int main(int argc, char** argv) {
  const auto bench_options = bench::parse_bench_args(argc, argv);
  bench::print_header("Extension: fault tolerance",
                      "CIFAR POP sweep under injected faults (cluster substrate)");

  workload::CifarWorkloadModel model;
  constexpr std::size_t kMachines = 4;

  const std::vector<Scenario> scenarios = {
      {"fault-free"},
      {"drop 1%", 0.01},
      {"drop 5%", 0.05},
      {"drop 15%", 0.15},
      {"crash (no restart)", 0.0, true, false},
      {"crash + restart", 0.0, true, true},
      {"drop 5% + crash + restart", 0.05, true, true},
      {"snapshot-fail 25%", 0.0, false, false, 0.25},
  };

  core::SweepSpec spec;
  spec.name = "ext_fault_tolerance";
  std::vector<std::string> scenario_labels;
  for (const auto& s : scenarios) scenario_labels.push_back(s.label);
  const auto scenario_ax = spec.add_axis("scenario", scenario_labels);
  const auto repeat_ax = spec.add_repeat_axis(bench_options.repeats(5));
  spec.trace = [&](const core::SweepCell& cell) {
    return bench::suitable_trace(model, 100, 4700 + cell.at(repeat_ax) * 31, kMachines * 2);
  };
  spec.policy = [&](const core::SweepCell& cell) {
    return core::make_standard_policy("pop", cell.at(repeat_ax));
  };
  spec.options = [&](const core::SweepCell& cell) {
    const Scenario& s = scenarios[cell.at(scenario_ax)];
    const std::uint64_t r = cell.at(repeat_ax);
    core::RunnerOptions options;
    options.substrate = core::Substrate::Cluster;
    options.machines = kMachines;
    options.max_experiment_time = util::SimTime::hours(96);
    options.seed = r + 1;
    options.fault_plan.seed = 1000 + r;
    cluster::MessageFaultProfile faults;
    faults.drop_prob = s.drop;
    options.fault_plan.set_uniform_message_faults(faults);
    options.fault_plan.snapshot_upload_fail_prob = s.snapshot_fail;
    if (s.crash) {
      cluster::NodeCrashEvent crash;
      crash.machine = 2;
      crash.at = util::SimTime::hours(2);
      if (s.restart) crash.restart_after = util::SimTime::minutes(30);
      options.fault_plan.crashes.push_back(crash);
    }
    return options;
  };
  // duplicate_stats_ignored is not a standard SweepTable CSV column, so it
  // rides along as an extra metric.
  spec.extra_columns = {"dup_stats"};
  spec.collect = [](const core::SweepCell&, const core::SchedulingPolicy&,
                    const core::ExperimentResult& result) {
    return std::vector<double>{
        static_cast<double>(result.recovery.duplicate_stats_ignored)};
  };

  const auto table = bench::run_bench_sweep(spec, bench_options);
  const int repeats = static_cast<int>(table.axes[repeat_ax].values.size());

  std::printf("  %-26s %10s %9s %9s %9s %9s %9s\n", "scenario", "ttt[min]", "vs-free",
              "retrans", "requeued", "ep-lost", "dup-stat");
  double free_minutes = 0.0;
  for (const auto& label : scenario_labels) {
    double total_minutes = 0.0;
    std::size_t reached = 0;
    std::uint64_t retrans = 0;
    std::size_t requeued = 0, epochs_lost = 0, dup_stats = 0;
    for (const auto* row : table.where("scenario", label)) {
      total_minutes += row->minutes_to_target();
      if (row->result.reached_target) ++reached;
      retrans += row->result.retransmissions;
      requeued += row->result.recovery.jobs_requeued;
      epochs_lost += row->result.recovery.epochs_lost;
      dup_stats += static_cast<std::size_t>(row->extra.at(0));
    }
    const double avg_minutes = total_minutes / repeats;
    if (free_minutes == 0.0) free_minutes = avg_minutes;
    std::printf("  %-26s %10.1f %+8.1f%% %9llu %9zu %9zu %9zu", label.c_str(), avg_minutes,
                100.0 * (avg_minutes - free_minutes) / free_minutes,
                static_cast<unsigned long long>(retrans), requeued, epochs_lost,
                dup_stats);
    if (reached < static_cast<std::size_t>(repeats)) {
      std::printf("  (%d/%d reached target)", static_cast<int>(reached), repeats);
    }
    std::printf("\n");
  }

  std::printf("\n  Degradation stays bounded while every scenario still reaches the\n"
              "  target: retries absorb drops, requeue + snapshot rollback absorb\n"
              "  crashes, and the AppStatDb dedup absorbs re-trained epochs.\n");
  return 0;
}
