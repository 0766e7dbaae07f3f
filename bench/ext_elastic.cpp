// Extension: elastic cost-aware capacity (DESIGN.md §15). The ext_multi_study
// tenant mix — an *urgent* deadline sweep, a *batch* sweep and a *quick*
// exploratory study — runs on a priced two-class catalog (8 standard
// on-demand nodes at $1/hr + 4 premium spot nodes at $3/hr) with a budget
// autoscaler closing the cloud bill and a mid-run spot preemption draining
// one premium node. The bench sweeps the arbitration mode over 20 fresh-noise
// repeats and compares:
//
//   * static   — weighted split at admission; the full fleet stays acquired
//                until the last study finishes.
//   * fair     — fair share; capacity drained by finished studies is released
//                by the autoscaler.
//   * deadline — fair share + urgency boosting (meets the most deadlines,
//                ignores prices).
//   * cost     — deadline boosting + per-tenant caps at the runnable-job
//                count; the autoscaler sheds everything the studies cannot
//                actually use, most expensive nodes first.
//
// Report: deadlines met (urgent study), mean spend, and $-per-target-reached.
// The headline property (ISSUE §15): cost arbitration meets at least as many
// deadlines as the deadline mode at measurably (≥5%) lower spend.
#include "bench_common.hpp"

#include "core/study/study_manager.hpp"

using namespace hyperdrive;

namespace {

struct ArmResult {
  std::size_t runs = 0;
  std::size_t deadlines_met = 0;
  std::size_t targets_reached = 0;
  double urgent_minutes = 0.0;   // mean urgent time-to-target
  double makespan_minutes = 0.0; // mean study makespan
  double spend_usd = 0.0;        // summed cloud bill
};

}  // namespace

int main(int argc, char** argv) {
  const auto bench_options = bench::parse_bench_args(argc, argv);
  bench::print_header(
      "Extension: elastic cost-aware capacity",
      "3 studies on an 8×$1 + 4×$3-spot catalog, arbitration static|fair|deadline|cost");

  const auto kDeadline = util::SimTime::minutes(150);
  constexpr double kQuickTarget = 0.35;
  constexpr std::size_t kMachines = 12;  // catalog total below

  cluster::NodeCatalog catalog;
  catalog.add({"standard", 8, 1.0, 1.0, false});
  catalog.add({"premium", 4, 3.0, 1.0, true});

  workload::CifarWorkloadModel model;
  const auto urgent_base = bench::suitable_trace(model, 40, 7100, kMachines);
  const auto batch_base = bench::suitable_trace(model, 48, 7200, kMachines);
  const auto quick_base = bench::suitable_trace(model, 8, 7300, 4);

  core::SweepSpec spec;
  spec.name = "ext_elastic";
  const auto mode_ax =
      spec.add_axis("arbitration", {"static", "fair", "deadline", "cost"});
  const auto repeat_ax = spec.add_repeat_axis(bench_options.repeats(20));
  std::vector<core::MultiStudyResult> outcomes(spec.cells());
  spec.run = [&](const core::SweepCell& cell) {
    const std::uint64_t r = cell.at(repeat_ax);
    core::StudyManagerOptions options;
    options.catalog = catalog;
    options.arbitration = core::arbitration_from_string(
        spec.axes[mode_ax].values[cell.at(mode_ax)]);
    options.arbitration_interval = util::SimTime::minutes(5);
    options.seed = 40 + r;
    // One premium spot node is reclaimed an hour in (2-minute warning): its
    // occupant snapshot-migrates out and the node leaves every arm's fleet.
    cluster::SpotPreemptionEvent preemption;
    preemption.machine = 8;  // first premium node
    preemption.at = util::SimTime::minutes(60);
    options.fault_plan.spot_preemptions.push_back(preemption);
    core::StudyManager manager(options);

    core::StudySpec urgent;
    urgent.name = "urgent";
    urgent.deadline = kDeadline;
    urgent.node_class = "premium";  // prefers the fast-to-free spot block
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
    arm.spend_usd += multi.spend_usd;
    util::SimTime makespan = util::SimTime::zero();
    for (const auto& study : multi.studies) {
      if (study.result.reached_target) {
        ++arm.targets_reached;
        if (study.result.time_to_target > makespan) {
          makespan = study.result.time_to_target;
        }
      }
      if (study.spec.name == "urgent") {
        if (study.deadline_met) ++arm.deadlines_met;
        arm.urgent_minutes += study.result.reached_target
                                  ? study.result.time_to_target.to_minutes()
                                  : study.spec.tmax.to_minutes();
      }
    }
    arm.makespan_minutes += makespan.to_minutes();
  }

  std::printf("  urgent-study deadline: %.0f min; %zu repeats per mode\n\n",
              kDeadline.to_minutes(), arms[0].runs);
  std::printf("  %-10s %14s %13s %14s %11s %12s\n", "mode", "deadlines-met",
              "urgent[min]", "makespan[min]", "spend[$]", "$/target");
  for (std::size_t m = 0; m < arms.size(); ++m) {
    const ArmResult& arm = arms[m];
    const double n = static_cast<double>(arm.runs);
    const double per_target =
        arm.targets_reached > 0
            ? arm.spend_usd / static_cast<double>(arm.targets_reached)
            : 0.0;
    std::printf("  %-10s %8zu/%-5zu %13.1f %14.1f %11.2f %12.2f\n",
                table.axes[mode_ax].values[m].c_str(), arm.deadlines_met, arm.runs,
                arm.urgent_minutes / n, arm.makespan_minutes / n, arm.spend_usd / n,
                per_target);
  }

  const ArmResult& deadline = arms[2];
  const ArmResult& cost = arms[3];
  const double deadline_spend = deadline.spend_usd / static_cast<double>(deadline.runs);
  const double cost_spend = cost.spend_usd / static_cast<double>(cost.runs);
  const bool no_fewer_deadlines = cost.deadlines_met >= deadline.deadlines_met;
  const bool measurably_cheaper = cost_spend <= 0.95 * deadline_spend;
  std::printf(
      "\n  Cost vs deadline arbitration: %zu vs %zu deadlines met (%s), mean spend\n"
      "  $%.2f vs $%.2f (%s). Both arms boost the urgent study the same way; the\n"
      "  cost arm additionally caps every tenant at its runnable-job count, and\n"
      "  the autoscaler sheds the surplus — the $3/hr premium nodes first.\n",
      cost.deadlines_met, deadline.deadlines_met,
      no_fewer_deadlines ? "no fewer" : "FEWER",
      cost_spend, deadline_spend,
      measurably_cheaper ? "measurably cheaper" : "NOT measurably cheaper");

  // The property is statistical: enforce it on the full 20-repeat run only
  // (the 2-repeat --smoke pass just exercises the machinery end to end).
  if (!bench_options.smoke && (!no_fewer_deadlines || !measurably_cheaper)) {
    std::fprintf(stderr, "ext_elastic: headline property violated\n");
    return 1;
  }
  return 0;
}
