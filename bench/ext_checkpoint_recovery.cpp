// Extension: coordinator checkpoint & crash-recovery costs (DESIGN.md §12).
// Two studies share one 8-slot cluster; the bench measures what durable
// checkpointing and crash recovery cost on top of the plain coordinator:
//
//   * checkpoint overhead — wall-time of the run with durable frames at a
//     120 s / 300 s / 600 s cadence vs the uncheckpointed reference, plus
//     frames written and bytes per frame (the CoordinatorRecoveryStats the
//     runtime reports);
//   * recovery cost — an in-simulation CoordinatorCrashEvent at the midpoint
//     of the run, recovered from the in-memory frame: wall-time vs the
//     reference (the price of the deterministic replay), with the headline
//     byte-identity invariant checked on every run.
//
// Report schema: EXPERIMENTS.md "Checkpoint / recovery bench".
#include "bench_common.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>

#include "core/study/coordinator.hpp"
#include "core/study/study_manager.hpp"
#include "obs/sink.hpp"

using namespace hyperdrive;

namespace {

double wall_ms(const std::chrono::steady_clock::time_point& from) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   from)
      .count();
}

/// A run's event stream minus CheckpointWritten, which only checkpointed runs
/// emit.
std::vector<obs::TraceEvent> timeline(const obs::RecordingSink& sink) {
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& event : sink.events) {
    if (event.kind != obs::EventKind::CheckpointWritten) out.push_back(event);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto bench_options = bench::parse_bench_args(argc, argv);
  bench::print_header(
      "Extension: coordinator checkpoint / crash recovery",
      "2 studies on one 8-slot cluster; durable-frame overhead and replay cost");

  constexpr std::size_t kMachines = 8;
  const std::size_t repeats = bench_options.repeats(5);

  workload::CifarWorkloadModel model;
  const auto sweep_base = bench::suitable_trace(model, 24, 8100, kMachines);
  const auto quick_base = bench::suitable_trace(model, 8, 8200, 4);

  const std::vector<double> cadences_s = {120.0, 300.0, 600.0};
  struct Arm {
    double wall_ms = 0.0;
    double frames = 0.0;
    double bytes_total = 0.0;
    std::size_t identical = 0;
  };
  std::vector<Arm> arms(cadences_s.size());
  Arm crash_arm;
  double reference_ms = 0.0;

  const auto ckpt_dir =
      std::filesystem::temp_directory_path() / "hd_bench_checkpoint_recovery";

  for (std::size_t r = 0; r < repeats; ++r) {
    core::StudyManagerOptions options;
    options.machines = kMachines;
    options.arbitration = core::ArbitrationMode::FairShare;
    options.arbitration_interval = util::SimTime::minutes(5);
    options.seed = 50 + r;

    core::StudySpec sweep;
    sweep.name = "sweep";
    sweep.seed = 100 + r;
    core::StudySpec quick;
    quick.name = "quick";
    quick.policy = "default";
    quick.target = 0.35;
    quick.seed = 200 + r;
    const std::vector<core::StudySpec> specs = {sweep, quick};

    auto sweep_trace = bench::renoise(model, sweep_base, 100 + r);
    auto quick_trace = bench::renoise(model, quick_base, 200 + r);
    quick_trace.target_performance = 0.35;
    const core::AdmitStudyFn admit = [&](core::StudyManager& manager,
                                         const core::StudySpec& spec) {
      if (spec.name == "sweep") {
        manager.add_study(spec, sweep_trace, [&, r] {
          return core::make_standard_policy("pop", 100 + r);
        });
      } else {
        manager.add_study(spec, quick_trace, [&, r] {
          return core::make_standard_policy("default", 200 + r);
        });
      }
    };

    // Every run records into `sink`, emptied by run_options() before it starts.
    obs::RecordingSink sink;
    const auto run_options = [&](core::StudyManagerOptions o) {
      sink.events.clear();
      o.obs.sink = &sink;
      return o;
    };

    // Reference: plain StudyManager, no checkpoint machinery at all.
    auto t0 = std::chrono::steady_clock::now();
    core::StudyManager reference(run_options(options));
    for (const auto& spec : specs) admit(reference, spec);
    const auto ref = reference.run();
    reference_ms += wall_ms(t0);
    const auto ref_events = timeline(sink);
    const auto matches_reference = [&](const core::MultiStudyResult& run) {
      return timeline(sink) == ref_events && run.total_time == ref.total_time &&
             run.rebalances == ref.rebalances;
    };

    // Durable frames at each cadence.
    for (std::size_t c = 0; c < cadences_s.size(); ++c) {
      std::filesystem::remove_all(ckpt_dir);
      core::CheckpointOptions ckpt;
      ckpt.dir = ckpt_dir.string();
      ckpt.every = util::SimTime::seconds(cadences_s[c]);
      t0 = std::chrono::steady_clock::now();
      const auto run =
          core::run_recoverable_multi_study(specs, run_options(options), ckpt, admit);
      arms[c].wall_ms += wall_ms(t0);
      arms[c].frames += static_cast<double>(run.recovery.checkpoints_written);
      arms[c].bytes_total += static_cast<double>(run.recovery.checkpoint_bytes_total);
      arms[c].identical += matches_reference(run.result) ? 1 : 0;
    }

    // Mid-run coordinator crash, in-memory recovery (replay from the frame).
    core::StudyManagerOptions crashed = options;
    cluster::CoordinatorCrashEvent crash;
    crash.at = util::SimTime::seconds(ref.total_time.to_seconds() * 0.5);
    crashed.fault_plan.coordinator_crashes.push_back(crash);
    core::CheckpointOptions mem;
    mem.every = util::SimTime::seconds(300.0);
    t0 = std::chrono::steady_clock::now();
    const auto run = core::run_recoverable_multi_study(specs, run_options(crashed), mem, admit);
    crash_arm.wall_ms += wall_ms(t0);
    crash_arm.frames += static_cast<double>(run.recovery.checkpoints_written);
    crash_arm.identical += matches_reference(run.result) ? 1 : 0;
  }
  std::filesystem::remove_all(ckpt_dir);

  const double n = static_cast<double>(repeats);
  // A smoke run's few tens of milliseconds per arm leave its overhead to
  // noise (even the sign varies run to run), so it prints none.
  const auto overhead = [&](double arm_ms) {
    if (bench_options.smoke) return std::string("-");
    char cell[32];
    std::snprintf(cell, sizeof cell, "%.1f", 100.0 * (arm_ms - reference_ms) / reference_ms);
    return std::string(cell);
  };
  std::printf("  reference (no checkpointing): %.1f ms/run, %zu repeats\n\n",
              reference_ms / n, repeats);
  std::printf("  %-14s %8s %12s %12s %12s\n", "mode", "frames", "KiB/frame",
              "overhead[%]", "identical");
  for (std::size_t c = 0; c < cadences_s.size(); ++c) {
    const Arm& arm = arms[c];
    const double frames = arm.frames / n;
    char label[16];
    std::snprintf(label, sizeof label, "every %.0fs", cadences_s[c]);
    std::printf("  %-14s %8.1f %12.1f %12s %9zu/%-2zu\n", label, frames,
                frames > 0.0 ? arm.bytes_total / arm.frames / 1024.0 : 0.0,
                overhead(arm.wall_ms).c_str(), arm.identical, repeats);
  }
  std::printf("  %-14s %8.1f %12s %12s %9zu/%-2zu\n", "crash+replay",
              crash_arm.frames / n, "-", overhead(crash_arm.wall_ms).c_str(),
              crash_arm.identical, repeats);

  if (crash_arm.identical != repeats) {
    std::printf("\n  ERROR: crash-recovered run diverged from the reference\n");
    return 1;
  }
  for (const Arm& arm : arms) {
    if (arm.identical != repeats) {
      std::printf("\n  ERROR: checkpointed run diverged from the reference\n");
      return 1;
    }
  }
  return 0;
}
