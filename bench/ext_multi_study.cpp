// Extension: multi-tenant study scheduling (DESIGN.md §9). Three studies
// share one 12-slot cluster: an *urgent* CIFAR sweep with a hard deadline, a
// *batch* sweep with no deadline, and a *quick* exploratory study that
// finishes early. The bench sweeps the arbitration mode over 20 fresh-noise
// repeats and compares:
//
//   * static   — weighted split at admission, never revisited. Capacity the
//                quick study frees is stranded for the rest of the run.
//   * fair     — weighted fair share over the unfinished studies; drained
//                capacity is handed to whoever still runs.
//   * deadline — fair share + urgency boosting from curve-predictor
//                time-to-target estimates (the same §5.2 predictor POP uses).
//
// Report: deadlines met (urgent study), mean urgent time-to-target, mean
// makespan over all three studies, and arbitration activity. The headline
// property (ROADMAP): deadline-aware arbitration meets strictly more
// deadlines than static partitioning at no worse aggregate time-to-target.
#include "bench_common.hpp"

#include "core/study/study_manager.hpp"

using namespace hyperdrive;

namespace {

struct ArmResult {
  std::size_t runs = 0;
  std::size_t deadlines_met = 0;
  std::size_t all_reached = 0;
  double urgent_minutes = 0.0;   // mean urgent time-to-target
  double makespan_minutes = 0.0; // mean max time-to-target over studies
  double rebalances = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const auto bench_options = bench::parse_bench_args(argc, argv);
  bench::print_header(
      "Extension: multi-tenant studies",
      "3 studies on one 12-slot cluster, arbitration static vs fair vs deadline");

  constexpr std::size_t kMachines = 12;
  const auto kDeadline = util::SimTime::minutes(150);
  // The quick study hunts a modest accuracy (the model's standard target is
  // 0.77): it finishes long before the sweeps, freeing its slots.
  constexpr double kQuickTarget = 0.35;

  // One hyperparameter set per study, drawn once and re-noised per repeat
  // (§6.1) — the standard trace-suitability rule, so every study's target is
  // reachable in every repeat.
  workload::CifarWorkloadModel model;
  const auto urgent_base = bench::suitable_trace(model, 40, 7100, kMachines);
  const auto batch_base = bench::suitable_trace(model, 48, 7200, kMachines);
  const auto quick_base = bench::suitable_trace(model, 8, 7300, 4);

  core::SweepSpec spec;
  spec.name = "ext_multi_study";
  const auto mode_ax = spec.add_axis("arbitration", {"static", "fair", "deadline"});
  const auto repeat_ax = spec.add_repeat_axis(bench_options.repeats(20));
  // One multi-study run per cell via the SweepEngine's custom-run hook; the
  // per-study outcomes land in a pre-sized slot keyed by the cell's linear
  // index, so the parallel sweep stays deterministic.
  std::vector<core::MultiStudyResult> outcomes(spec.cells());
  spec.run = [&](const core::SweepCell& cell) {
    const std::uint64_t r = cell.at(repeat_ax);
    core::StudyManagerOptions options;
    options.machines = kMachines;
    options.arbitration = core::arbitration_from_string(
        spec.axes[mode_ax].values[cell.at(mode_ax)]);
    options.arbitration_interval = util::SimTime::minutes(5);
    options.seed = 40 + r;
    core::StudyManager manager(options);

    core::StudySpec urgent;
    urgent.name = "urgent";
    urgent.deadline = kDeadline;
    urgent.seed = 100 + r;
    manager.add_study(urgent, bench::renoise(model, urgent_base, 100 + r), [&, r] {
      return core::make_standard_policy("pop", 100 + r);
    });

    core::StudySpec batch;
    batch.name = "batch";
    batch.seed = 200 + r;
    manager.add_study(batch, bench::renoise(model, batch_base, 200 + r), [&, r] {
      return core::make_standard_policy("pop", 200 + r);
    });

    core::StudySpec quick;
    quick.name = "quick";
    quick.policy = "default";
    quick.target = kQuickTarget;
    quick.seed = 300 + r;
    auto quick_trace = bench::renoise(model, quick_base, 300 + r);
    quick_trace.target_performance = kQuickTarget;
    manager.add_study(quick, std::move(quick_trace), [&, r] {
      return core::make_standard_policy("default", 300 + r);
    });

    auto result = manager.run();
    auto aggregate = result.aggregate();
    outcomes[cell.linear] = std::move(result);
    return aggregate;
  };

  const auto table = bench::run_bench_sweep(spec, bench_options);

  std::vector<ArmResult> arms(table.axes[mode_ax].values.size());
  for (const auto& row : table.rows) {
    const auto& multi = outcomes[row.cell.linear];
    ArmResult& arm = arms[row.cell.at(mode_ax)];
    ++arm.runs;
    arm.rebalances += static_cast<double>(multi.rebalances);
    bool all_reached = true;
    util::SimTime makespan = util::SimTime::zero();
    for (const auto& study : multi.studies) {
      if (!study.result.reached_target) all_reached = false;
      if (study.result.reached_target && study.result.time_to_target > makespan) {
        makespan = study.result.time_to_target;
      }
      if (study.spec.name == "urgent") {
        if (study.deadline_met) ++arm.deadlines_met;
        arm.urgent_minutes += study.result.reached_target
                                  ? study.result.time_to_target.to_minutes()
                                  : study.spec.tmax.to_minutes();
      }
    }
    if (all_reached) ++arm.all_reached;
    arm.makespan_minutes += makespan.to_minutes();
  }

  std::printf("  urgent-study deadline: %.0f min; %zu repeats per mode\n\n",
              kDeadline.to_minutes(), arms[0].runs);
  std::printf("  %-10s %14s %13s %14s %12s %11s\n", "mode", "deadlines-met",
              "urgent[min]", "makespan[min]", "all-reached", "rebalances");
  for (std::size_t m = 0; m < arms.size(); ++m) {
    const ArmResult& arm = arms[m];
    const double n = static_cast<double>(arm.runs);
    std::printf("  %-10s %8zu/%-5zu %13.1f %14.1f %9zu/%-2zu %11.1f\n",
                table.axes[mode_ax].values[m].c_str(), arm.deadlines_met, arm.runs,
                arm.urgent_minutes / n, arm.makespan_minutes / n, arm.all_reached,
                arm.runs, arm.rebalances / n);
  }

  const ArmResult& fixed = arms[0];
  const ArmResult& deadline = arms[2];
  const bool more_deadlines = deadline.deadlines_met > fixed.deadlines_met;
  const bool no_worse_makespan = deadline.makespan_minutes <= fixed.makespan_minutes;
  std::printf(
      "\n  Deadline-aware vs static: %zu vs %zu deadlines met (%s), mean makespan\n"
      "  %.1f vs %.1f min (%s). Static strands the quick study's slots and gives\n"
      "  the urgent sweep only its admission share; fair share re-spreads drained\n"
      "  capacity, and the deadline mode additionally fronts slots to the urgent\n"
      "  study while its predicted time-to-target overshoots the deadline.\n",
      deadline.deadlines_met, fixed.deadlines_met,
      more_deadlines ? "strictly more" : "NOT more",
      deadline.makespan_minutes / static_cast<double>(deadline.runs),
      fixed.makespan_minutes / static_cast<double>(fixed.runs),
      no_worse_makespan ? "no worse" : "WORSE");
  // The property is statistical: enforce it on the full 20-repeat run only
  // (the 2-repeat --smoke pass just exercises the machinery end to end).
  if (!bench_options.smoke && (!more_deadlines || !no_worse_makespan)) {
    std::fprintf(stderr, "ext_multi_study: headline property violated\n");
    return 1;
  }
  return 0;
}
