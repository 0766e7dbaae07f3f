// Coordinator crash-recovery tests (DESIGN.md §12). The headline invariant:
// killing the coordinator at any tick and resuming produces a byte-identical
// timeline, MultiStudyResult and CSV versus the uninterrupted run — across
// seeds, crash positions, thread counts, in-simulation CoordinatorCrashEvents
// and real out-of-process resume from durable frames. Plus the degraded
// ladder: corrupt/truncated/divergent frames fall back to older ones and
// ultimately to a cold restart, with every fallback counted and reported.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/policies/barrier_policy.hpp"
#include "core/policies/default_policy.hpp"
#include "core/policy_registry.hpp"
#include "core/study/checkpoint.hpp"
#include "core/study/coordinator.hpp"
#include "core/study/study_manager.hpp"
#include "core/sweep_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "support/timeline.hpp"
#include "workload/trace.hpp"

namespace hyperdrive::core {
namespace {

using util::SimTime;

workload::Trace curved_trace(std::size_t jobs, std::size_t epochs, double top,
                             double tau, double target) {
  workload::Trace trace;
  trace.workload_name = "curved";
  trace.target_performance = target;
  trace.kill_threshold = 0.0;
  trace.evaluation_boundary = 2;
  trace.max_epochs = epochs;
  for (std::size_t i = 0; i < jobs; ++i) {
    workload::TraceJob job;
    job.job_id = i + 1;
    job.curve.epoch_duration = SimTime::seconds(60);
    const double ceiling = top * (0.7 + 0.3 * static_cast<double>(i + 1) /
                                            static_cast<double>(jobs));
    for (std::size_t e = 1; e <= epochs; ++e) {
      job.curve.perf.push_back(
          ceiling * (1.0 - std::exp(-static_cast<double>(e) / tau)));
    }
    trace.jobs.push_back(std::move(job));
  }
  return trace;
}

std::function<std::unique_ptr<SchedulingPolicy>()> default_policy_factory() {
  return [] { return std::make_unique<DefaultPolicy>(); };
}

/// The recovery runtime re-admits studies from checkpoint-recorded spec
/// texts; this hook resolves each (possibly round-tripped) spec back to its
/// fixture trace by name — the test-side analogue of name resolution.
workload::Trace trace_for(const std::string& name) {
  if (name == "alpha") return curved_trace(4, 10, 0.9, 3.0, 0.85);
  if (name == "beta") return curved_trace(6, 8, 0.6, 4.0, 0.99);
  if (name == "gamma") return curved_trace(3, 6, 0.9, 2.0, 0.75);
  ADD_FAILURE() << "unknown study in admit hook: " << name;
  return curved_trace(1, 2, 0.5, 1.0, 0.4);
}

AdmitStudyFn fixture_admit() {
  return [](StudyManager& manager, const StudySpec& spec) {
    manager.add_study(spec, trace_for(spec.name), default_policy_factory());
  };
}

std::vector<StudySpec> mix_specs(std::uint64_t base_seed) {
  const auto make = [](std::string name, std::uint64_t seed) {
    StudySpec spec;
    spec.name = std::move(name);
    spec.seed = seed;
    spec.tmax = SimTime::hours(48);
    return spec;
  };
  std::vector<StudySpec> specs;
  specs.push_back(make("alpha", base_seed ^ 11));
  specs.push_back(make("beta", base_seed ^ 22));
  auto gamma = make("gamma", base_seed ^ 33);
  gamma.weight = 2.0;
  specs.push_back(gamma);
  return specs;
}

StudyManagerOptions mix_options(std::uint64_t seed) {
  StudyManagerOptions options;
  options.machines = 5;
  options.arbitration = ArbitrationMode::FairShare;
  options.arbitration_interval = SimTime::minutes(5);
  options.seed = seed;
  return options;
}

/// A finished run: its result, the timeline its sink recorded and, for
/// recoverable runs, the recovery counters. The timeline leaves out
/// CheckpointWritten, which only checkpointed runs emit, so every run
/// compares against an uncheckpointed reference.
struct Traced {
  MultiStudyResult result;
  std::vector<std::string> timeline;
  CoordinatorRecoveryStats recovery;
};

/// Ground truth: a plain StudyManager, no checkpointing machinery in the loop.
Traced reference_run(StudyManagerOptions options, const std::vector<StudySpec>& specs,
                     const AdmitStudyFn& admit) {
  obs::RecordingSink sink;
  options.obs.sink = &sink;
  StudyManager manager(options);
  for (const StudySpec& spec : specs) admit(manager, spec);
  MultiStudyResult result = manager.run();
  return {std::move(result), timeline(sink), {}};
}

Traced reference_run(std::uint64_t seed) {
  return reference_run(mix_options(seed), mix_specs(seed), fixture_admit());
}

/// run_recoverable_multi_study with a sink on the caller-facing stream.
Traced run_recoverable(const std::vector<StudySpec>& specs, StudyManagerOptions options,
                       const CheckpointOptions& ckpt, const AdmitStudyFn& admit) {
  obs::RecordingSink sink;
  options.obs.sink = &sink;
  RecoverableRunResult run = run_recoverable_multi_study(specs, options, ckpt, admit);
  return {std::move(run.result), timeline(sink, {obs::EventKind::CheckpointWritten}),
          run.recovery};
}

std::string csv_bytes(const MultiStudyResult& result) {
  std::ostringstream out;
  result.save_csv(out);
  return out.str();
}

void expect_identical(const Traced& want_run, const Traced& got_run) {
  ASSERT_FALSE(want_run.timeline.empty());
  ASSERT_EQ(want_run.timeline.size(), got_run.timeline.size());
  for (std::size_t i = 0; i < want_run.timeline.size(); ++i) {
    ASSERT_EQ(want_run.timeline[i], got_run.timeline[i]) << "timeline line " << i;
  }
  const MultiStudyResult& want = want_run.result;
  const MultiStudyResult& got = got_run.result;
  EXPECT_EQ(csv_bytes(want), csv_bytes(got));
  EXPECT_EQ(want.total_time, got.total_time);
  EXPECT_EQ(want.rebalances, got.rebalances);
  ASSERT_EQ(want.studies.size(), got.studies.size());
  for (std::size_t i = 0; i < want.studies.size(); ++i) {
    EXPECT_EQ(want.studies[i].result.reached_target, got.studies[i].result.reached_target);
    EXPECT_EQ(want.studies[i].result.time_to_target, got.studies[i].result.time_to_target);
    EXPECT_EQ(want.studies[i].result.suspends, got.studies[i].result.suspends);
    EXPECT_EQ(want.studies[i].result.jobs_started, got.studies[i].result.jobs_started);
  }
}

std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir;
}

// --- the 30-seed golden-trace battery ----------------------------------------

TEST(CoordinatorRecoveryTest, CrashAndResumeIsByteIdenticalAcrossThirtySeeds) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const Traced ref = reference_run(seed);
    ASSERT_GT(ref.result.total_time, SimTime::zero()) << "seed " << seed;

    // Rotate the crash through early / middle / late run positions.
    const double frac = seed % 3 == 0 ? 0.3 : (seed % 3 == 1 ? 0.55 : 0.85);
    StudyManagerOptions options = mix_options(seed);
    cluster::CoordinatorCrashEvent crash;
    crash.at = SimTime::seconds(ref.result.total_time.to_seconds() * frac);
    options.fault_plan.coordinator_crashes.push_back(crash);

    CheckpointOptions ckpt;  // in-memory: no durable dir needed for in-sim crashes
    ckpt.every = SimTime::seconds(ref.result.total_time.to_seconds() / 6.0);
    const auto run = run_recoverable(mix_specs(seed), options, ckpt, fixture_admit());
    EXPECT_EQ(run.recovery.coordinator_crashes, 1u) << "seed " << seed;
    EXPECT_EQ(run.recovery.checkpoint_loads + run.recovery.cold_restarts, 1u)
        << "seed " << seed;
    expect_identical(ref, run);
  }
}

TEST(CoordinatorRecoveryTest, CrashedRunsAreThreadCountInvariant) {
  // Four independent crashed-and-resumed sweep cells: tables and merged
  // timelines must be byte-identical at 1 and 8 worker threads.
  const auto make_sweep = [](std::vector<std::vector<std::string>>& logs) {
    SweepSpec spec;
    spec.name = "crash_resume_mix";
    spec.base_seed = 23;
    spec.add_repeat_axis(4);
    logs.assign(4, {});
    spec.run = [&logs](const SweepCell& cell) {
      const Traced ref = reference_run(cell.seed);
      StudyManagerOptions options = mix_options(cell.seed);
      cluster::CoordinatorCrashEvent crash;
      crash.at = SimTime::seconds(ref.result.total_time.to_seconds() * 0.5);
      options.fault_plan.coordinator_crashes.push_back(crash);
      CheckpointOptions ckpt;
      ckpt.every = SimTime::minutes(4);
      auto run = run_recoverable(mix_specs(cell.seed), options, ckpt, fixture_admit());
      EXPECT_EQ(run.recovery.coordinator_crashes, 1u);
      logs[cell.linear] = std::move(run.timeline);
      return run.result.aggregate();
    };
    return spec;
  };

  std::vector<std::vector<std::string>> serial_logs, parallel_logs;
  const auto serial_spec = make_sweep(serial_logs);
  const auto serial = run_sweep(serial_spec, 1);
  const auto parallel_spec = make_sweep(parallel_logs);
  const auto parallel = run_sweep(parallel_spec, 8);

  std::ostringstream sa, sb;
  serial.save_csv(sa);
  parallel.save_csv(sb);
  EXPECT_EQ(sa.str(), sb.str());
  ASSERT_EQ(serial_logs.size(), parallel_logs.size());
  for (std::size_t c = 0; c < serial_logs.size(); ++c) {
    ASSERT_FALSE(serial_logs[c].empty()) << "cell " << c;
    EXPECT_EQ(serial_logs[c], parallel_logs[c]) << "cell " << c;
  }
}

// --- out-of-process resume & the degraded ladder -----------------------------

TEST(CoordinatorRecoveryTest, OutOfProcessResumeReplaysFromDurableFrames) {
  // Process one: runs with durable checkpoints, crashes in-sim mid-run, and
  // finishes. Process two (fresh runtime state): --resume-from semantics with
  // no specs at all — everything comes from the frames.
  const auto dir = fresh_dir("hd_resume_roundtrip");
  const Traced ref = reference_run(13);

  StudyManagerOptions options = mix_options(13);
  CheckpointOptions ckpt;
  ckpt.dir = dir.string();
  ckpt.every = SimTime::minutes(6);
  const auto first = run_recoverable(mix_specs(13), options, ckpt, fixture_admit());
  expect_identical(ref, first);
  ASSERT_FALSE(CheckpointStore(dir.string()).list().empty());

  CheckpointOptions resume;
  resume.dir = dir.string();
  resume.resume = true;
  const auto second = run_recoverable({}, mix_options(13), resume, fixture_admit());
  EXPECT_EQ(second.recovery.checkpoint_loads, 1u);
  EXPECT_EQ(second.recovery.replay_verifications, 1u);
  EXPECT_EQ(second.recovery.cold_restarts, 0u);
  expect_identical(ref, second);
  std::filesystem::remove_all(dir);
}

TEST(CoordinatorRecoveryTest, RegistryPoliciesRideFramesAndResumeByteIdentically) {
  // Registry-built policies (DESIGN.md §13) in the recovery loop: an ASHA
  // study with key=value params plus a POP study, admitted by name through
  // the PolicyRegistry. The policy name and params ride the HDCK frames as
  // study-spec text, so an out-of-process resume must rebuild the exact
  // policies — byte-identical timeline and CSV.
  const auto specs_with_zoo = [](std::uint64_t base_seed) {
    auto specs = mix_specs(base_seed);
    specs[0].policy = "asha";
    specs[0].policy_params = {"eta=2"};
    specs[1].policy = "pop";
    return specs;
  };
  const AdmitStudyFn registry_admit = [](StudyManager& manager, const StudySpec& spec) {
    if (spec.name == "alpha") {
      // The round-tripped spec must still carry the policy line verbatim.
      EXPECT_EQ(spec.policy, "asha");
      EXPECT_EQ(spec.policy_params, std::vector<std::string>{"eta=2"});
    }
    manager.add_study(spec, trace_for(spec.name), [spec] {
      PolicyContext ctx;
      ctx.seed = spec.seed;
      ctx.tmax = spec.tmax;
      return make_registry_policy(spec.policy, PolicyParams::parse(spec.policy_params),
                                  ctx);
    });
  };

  // Uninterrupted ground truth with the same registry-built policies.
  const Traced ref = reference_run(mix_options(19), specs_with_zoo(19), registry_admit);

  const auto dir = fresh_dir("hd_registry_resume");
  StudyManagerOptions options = mix_options(19);
  cluster::CoordinatorCrashEvent crash;
  crash.at = SimTime::seconds(ref.result.total_time.to_seconds() * 0.5);
  options.fault_plan.coordinator_crashes.push_back(crash);
  CheckpointOptions ckpt;
  ckpt.dir = dir.string();
  ckpt.every = SimTime::minutes(5);
  const auto first = run_recoverable(specs_with_zoo(19), options, ckpt, registry_admit);
  EXPECT_EQ(first.recovery.coordinator_crashes, 1u);
  expect_identical(ref, first);

  // Process two: nothing but the frames — policies come back by name.
  CheckpointOptions resume;
  resume.dir = dir.string();
  resume.resume = true;
  const auto second = run_recoverable({}, mix_options(19), resume, registry_admit);
  EXPECT_EQ(second.recovery.checkpoint_loads, 1u);
  expect_identical(ref, second);
  std::filesystem::remove_all(dir);
}

TEST(CoordinatorRecoveryTest, DegradedLadderFallsBackPastCorruptFrames) {
  const auto dir = fresh_dir("hd_ladder");
  StudyManagerOptions options = mix_options(5);
  CheckpointOptions ckpt;
  ckpt.dir = dir.string();
  ckpt.every = SimTime::minutes(6);
  const auto original = run_recoverable(mix_specs(5), options, ckpt, fixture_admit());

  CheckpointStore store(dir.string());
  const auto seqs = store.list();
  ASSERT_GE(seqs.size(), 3u) << "need at least three frames for the ladder";

  {  // Newest frame: flip one bit (CRC must reject it).
    const std::string path = store.path_for(seqs[0]);
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(0, std::ios::end);
    const auto size = static_cast<long>(f.tellg());
    f.seekp(size / 2);
    char byte = 0;
    f.seekg(size / 2);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x20);
    f.seekp(size / 2);
    f.write(&byte, 1);
  }
  {  // Second-newest: truncate to half (structure ends early).
    const std::string path = store.path_for(seqs[1]);
    const auto size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size / 2);
  }

  obs::MetricsRegistry registry;
  preregister_checkpoint_metrics(registry);
  obs::RecordingSink journey;
  StudyManagerOptions resume_options = mix_options(5);
  resume_options.obs.metrics = &registry;
  CheckpointOptions resume;
  resume.dir = dir.string();
  resume.resume = true;
  resume.recovery_sink = &journey;
  const auto resumed = run_recoverable({}, resume_options, resume, fixture_admit());

  EXPECT_EQ(resumed.recovery.checkpoint_fallbacks, 2u);
  EXPECT_EQ(resumed.recovery.checkpoint_loads, 1u);
  EXPECT_EQ(resumed.recovery.replay_verifications, 1u);
  EXPECT_EQ(resumed.recovery.cold_restarts, 0u);
  EXPECT_EQ(journey.count(obs::EventKind::CheckpointFallback), 2u);
  EXPECT_EQ(journey.count(obs::EventKind::CheckpointLoaded), 1u);
  EXPECT_EQ(journey.count(obs::EventKind::CoordinatorResume), 1u);
  EXPECT_EQ(registry.counter("recovery.checkpoint_fallbacks").value(), 2u);
  EXPECT_EQ(registry.counter("recovery.replay_verifications").value(), 1u);
  expect_identical(original, resumed);

  // The replay healed the frames it re-wrote: everything decodes again.
  for (const std::uint64_t seq : store.list()) {
    EXPECT_TRUE(store.load(seq).checkpoint.has_value()) << "seq " << seq;
  }
  std::filesystem::remove_all(dir);
}

TEST(CoordinatorRecoveryTest, ExhaustedLadderColdRestartsFromRecordedSpecs) {
  const auto dir = fresh_dir("hd_cold_restart");
  StudyManagerOptions options = mix_options(3);
  CheckpointOptions ckpt;
  ckpt.dir = dir.string();
  ckpt.every = SimTime::minutes(6);
  const auto original = run_recoverable(mix_specs(3), options, ckpt, fixture_admit());

  // Corrupt every frame: the ladder exhausts and the run cold-restarts.
  CheckpointStore store(dir.string());
  const auto seqs = store.list();
  ASSERT_FALSE(seqs.empty());
  for (const std::uint64_t seq : seqs) {
    std::filesystem::resize_file(store.path_for(seq), 2);
  }

  // With no specs anywhere there is nothing to cold-restart from.
  CheckpointOptions resume;
  resume.dir = dir.string();
  resume.resume = true;
  EXPECT_THROW(
      (void)run_recoverable_multi_study({}, mix_options(3), resume, fixture_admit()),
      std::runtime_error);

  // With caller-supplied specs the cold restart completes byte-identically.
  const auto resumed = run_recoverable(mix_specs(3), mix_options(3), resume, fixture_admit());
  EXPECT_EQ(resumed.recovery.cold_restarts, 1u);
  EXPECT_EQ(resumed.recovery.checkpoint_loads, 0u);
  EXPECT_EQ(resumed.recovery.checkpoint_fallbacks, seqs.size());
  expect_identical(original, resumed);
  std::filesystem::remove_all(dir);
}

TEST(CoordinatorRecoveryTest, DivergentFrameIsRejectedByReplayVerification) {
  // A frame that decodes cleanly but records a state the deterministic
  // replay cannot reproduce (tampered state bytes, valid CRC) must be
  // rejected mid-replay (ManagerExit::Halted) and the ladder must recover
  // from the next older frame.
  const auto dir = fresh_dir("hd_divergence");
  StudyManagerOptions options = mix_options(21);
  CheckpointOptions ckpt;
  ckpt.dir = dir.string();
  ckpt.every = SimTime::minutes(6);
  const auto original = run_recoverable(mix_specs(21), options, ckpt, fixture_admit());

  CheckpointStore store(dir.string());
  auto seqs = store.list();
  ASSERT_GE(seqs.size(), 3u);
  // Make a MID-RUN frame the newest (drop the final on-demand frame), then
  // tamper its state and re-encode so the CRC still passes. seqs[1] is the
  // last periodic frame; seqs[2] exists as the fallback rung below it.
  const std::uint64_t victim = seqs[1];
  for (const std::uint64_t seq : seqs) {
    if (seq > victim) std::filesystem::remove(store.path_for(seq));
  }
  auto frame = store.load(victim);
  ASSERT_TRUE(frame.checkpoint.has_value());
  ASSERT_FALSE(frame.checkpoint->state.empty());
  frame.checkpoint->state[frame.checkpoint->state.size() / 2] ^= 0x01;
  (void)store.write(*frame.checkpoint);

  obs::RecordingSink journey;
  CheckpointOptions resume;
  resume.dir = dir.string();
  resume.resume = true;
  resume.recovery_sink = &journey;
  const auto resumed = run_recoverable({}, mix_options(21), resume, fixture_admit());

  EXPECT_EQ(resumed.recovery.checkpoint_fallbacks, 1u);
  EXPECT_EQ(resumed.recovery.checkpoint_loads, 2u);  // tampered frame + fallback
  EXPECT_EQ(resumed.recovery.replay_verifications, 1u);
  EXPECT_EQ(journey.count(obs::EventKind::CheckpointFallback), 1u);
  expect_identical(original, resumed);
  std::filesystem::remove_all(dir);
}

// --- resume edge cases -------------------------------------------------------

TEST(CoordinatorRecoveryTest, MidEpochCheckpointWithSuspendsInFlightResumes) {
  // A 130 s cadence lands checkpoints inside 60 s epochs while a barrier
  // policy suspends every job each 2-epoch round — frames routinely capture
  // suspended-job-in-flight state. Crash just past such a frame. This is
  // also the admit-hook escape hatch at work: both incarnations rebuild the
  // barrier policy from spec.name alone.
  const std::uint64_t seed = 17;
  const AdmitStudyFn barrier_admit = [](StudyManager& manager, const StudySpec& spec) {
    manager.add_study(spec, trace_for(spec.name), [] {
      return std::make_unique<BarrierPolicy>(std::make_unique<DefaultPolicy>(),
                                             /*epochs_per_round=*/2);
    });
  };
  const auto specs = mix_specs(seed);
  const StudyManagerOptions options = mix_options(seed);

  const Traced ref = reference_run(options, specs, barrier_admit);
  ASSERT_GT(ref.result.aggregate().suspends, 0u)
      << "fixture mix no longer exercises suspends";

  StudyManagerOptions crashed = options;
  cluster::CoordinatorCrashEvent crash;
  crash.at = SimTime::seconds(5 * 130 + 10);
  ASSERT_LT(crash.at, ref.result.total_time);
  crashed.fault_plan.coordinator_crashes.push_back(crash);
  CheckpointOptions ckpt;
  ckpt.every = SimTime::seconds(130);
  const auto run = run_recoverable(specs, crashed, ckpt, barrier_admit);
  EXPECT_EQ(run.recovery.coordinator_crashes, 1u);
  EXPECT_EQ(run.recovery.replay_verifications, 1u);
  expect_identical(ref, run);
}

TEST(CoordinatorRecoveryTest, ResumeAfterLastStudyFinishedReplaysToTheEnd) {
  const auto dir = fresh_dir("hd_resume_finished");
  StudyManagerOptions options = mix_options(7);
  CheckpointOptions ckpt;
  ckpt.dir = dir.string();
  ckpt.every = SimTime::minutes(6);
  const auto first = run_recoverable(mix_specs(7), options, ckpt, fixture_admit());

  // The newest frame is the final on-demand capture of a *finished* run: the
  // replay never reaches its sequence periodically and verifies at the end.
  const auto resumed = run_recoverable({}, mix_options(7),
                                       [&] {
                                         CheckpointOptions r;
                                         r.dir = dir.string();
                                         r.resume = true;
                                         return r;
                                       }(),
                                       fixture_admit());
  EXPECT_EQ(resumed.recovery.coordinator_crashes, 0u);
  EXPECT_EQ(resumed.recovery.replay_verifications, 1u);
  EXPECT_EQ(resumed.recovery.checkpoint_fallbacks, 0u);
  expect_identical(first, resumed);

  // Resuming a finished run converges: a third pass still verifies (the
  // final frame was re-written with identical state bytes, not duplicated).
  const auto third = run_recoverable({}, mix_options(7),
                                     [&] {
                                       CheckpointOptions r;
                                       r.dir = dir.string();
                                       r.resume = true;
                                       return r;
                                     }(),
                                     fixture_admit());
  EXPECT_EQ(third.recovery.replay_verifications, 1u);
  EXPECT_EQ(third.recovery.checkpoint_fallbacks, 0u);
  expect_identical(first, third);
  std::filesystem::remove_all(dir);
}

TEST(CoordinatorRecoveryTest, CrashEventsAlreadyInThePastAreNotRefired) {
  const auto dir = fresh_dir("hd_past_events");
  const Traced ref = reference_run(9);

  StudyManagerOptions options = mix_options(9);
  cluster::CoordinatorCrashEvent crash;
  crash.at = SimTime::seconds(ref.result.total_time.to_seconds() * 0.5);
  options.fault_plan.coordinator_crashes.push_back(crash);
  CheckpointOptions ckpt;
  ckpt.dir = dir.string();
  ckpt.every = SimTime::minutes(6);
  const auto first = run_recoverable(mix_specs(9), options, ckpt, fixture_admit());
  EXPECT_EQ(first.recovery.coordinator_crashes, 1u);
  expect_identical(ref, first);

  // Resume: the final frame records crashes_taken=1, so the plan's only
  // crash — now in the replayed past — is a consumed prefix entry.
  CheckpointOptions resume;
  resume.dir = dir.string();
  resume.resume = true;
  const auto second = run_recoverable({}, mix_options(9), resume, fixture_admit());
  EXPECT_EQ(second.recovery.coordinator_crashes, 0u);
  EXPECT_EQ(second.recovery.replay_verifications, 1u);
  expect_identical(ref, second);

  // Defensive floor: even a frame hand-edited to claim crashes_taken=0 must
  // not re-fire a crash that lies before its own tick.
  CheckpointStore store(dir.string());
  const auto seqs = store.list();
  ASSERT_FALSE(seqs.empty());
  auto newest = store.load(seqs[0]);
  ASSERT_TRUE(newest.checkpoint.has_value());
  ASSERT_GT(newest.checkpoint->crashes_taken, 0u);
  newest.checkpoint->crashes_taken = 0;
  (void)store.write(*newest.checkpoint);

  const auto third = run_recoverable({}, mix_options(9), resume, fixture_admit());
  EXPECT_EQ(third.recovery.coordinator_crashes, 0u);
  expect_identical(ref, third);
  std::filesystem::remove_all(dir);
}

TEST(CoordinatorRecoveryTest, DoubleCrashRecoversTwiceIncludingDuringRecovery) {
  // The second crash fires inside the incarnation that is replaying after
  // the first one — a crash during recovery. Both must be taken exactly
  // once, with a verified replay after each.
  const std::uint64_t seed = 27;
  const Traced ref = reference_run(seed);

  StudyManagerOptions options = mix_options(seed);
  for (const double frac : {0.4, 0.7}) {
    cluster::CoordinatorCrashEvent crash;
    crash.at = SimTime::seconds(ref.result.total_time.to_seconds() * frac);
    options.fault_plan.coordinator_crashes.push_back(crash);
  }
  CheckpointOptions ckpt;
  ckpt.every = SimTime::seconds(ref.result.total_time.to_seconds() / 8.0);
  const auto run = run_recoverable(mix_specs(seed), options, ckpt, fixture_admit());
  EXPECT_EQ(run.recovery.coordinator_crashes, 2u);
  EXPECT_EQ(run.recovery.checkpoint_loads, 2u);
  EXPECT_EQ(run.recovery.replay_verifications, 2u);
  EXPECT_EQ(run.recovery.cold_restarts, 0u);
  expect_identical(ref, run);
}

TEST(CoordinatorRecoveryTest, CheckpointWrittenRidesTheDeterministicTimeline) {
  // CheckpointWritten is part of the run's obs stream (not the recovery
  // journey): an uninterrupted run and a crashed+resumed run at the same
  // cadence must surface the identical checkpoint event sequence.
  const std::uint64_t seed = 2;
  const Traced ref = reference_run(seed);

  const auto run_with = [&](bool crashed) {
    StudyManagerOptions options = mix_options(seed);
    obs::RecordingSink sink;
    options.obs.sink = &sink;
    if (crashed) {
      cluster::CoordinatorCrashEvent crash;
      crash.at = SimTime::seconds(ref.result.total_time.to_seconds() * 0.6);
      options.fault_plan.coordinator_crashes.push_back(crash);
    }
    CheckpointOptions ckpt;
    ckpt.every = SimTime::minutes(5);
    const auto run = run_recoverable_multi_study(mix_specs(seed), options, ckpt,
                                                 fixture_admit());
    std::vector<std::string> lines;
    for (const obs::TraceEvent* event : sink.of_kind(obs::EventKind::CheckpointWritten)) {
      lines.push_back(timeline_row(*event));
    }
    return lines;
  };

  const auto smooth = run_with(false);
  const auto crashed = run_with(true);
  ASSERT_FALSE(smooth.empty());
  EXPECT_EQ(smooth, crashed);
}

// --- elastic capacity through the checkpoint frame (DESIGN.md §15) -----------

StudyManagerOptions elastic_mix_options(std::uint64_t seed) {
  StudyManagerOptions options = mix_options(seed);
  cluster::NodeCatalog catalog;
  catalog.add({"standard", 3, 1.0, 1.0, false});
  catalog.add({"cheap-spot", 2, 0.4, 1.0, true});
  options.catalog = catalog;
  options.arbitration = ArbitrationMode::Cost;
  cluster::SpotPreemptionEvent spot;  // reclaim a spot node mid-run
  spot.machine = 4;
  spot.at = SimTime::minutes(15);
  options.fault_plan.spot_preemptions.push_back(spot);
  return options;
}

TEST(CoordinatorRecoveryTest, ElasticAutoscaledRunResumesByteIdentically) {
  // The headline §15 durability claim: a live autoscaler (acquired capacity +
  // spend integral), a typed catalog, cost arbitration and a spot reclaim all
  // ride the checkpoint frame — crash + resume reproduces the uninterrupted
  // run byte for byte, including the final cloud bill.
  for (std::uint64_t seed = 3; seed <= 5; ++seed) {
    const Traced ref = reference_run(elastic_mix_options(seed), mix_specs(seed),
                                     fixture_admit());
    ASSERT_GT(ref.result.spend_usd, 0.0) << "seed " << seed;

    StudyManagerOptions options = elastic_mix_options(seed);
    cluster::CoordinatorCrashEvent crash;
    crash.at = SimTime::seconds(ref.result.total_time.to_seconds() * 0.5);
    options.fault_plan.coordinator_crashes.push_back(crash);
    CheckpointOptions ckpt;
    ckpt.every = SimTime::minutes(5);
    const auto run = run_recoverable(mix_specs(seed), options, ckpt, fixture_admit());
    EXPECT_EQ(run.recovery.coordinator_crashes, 1u) << "seed " << seed;
    expect_identical(ref, run);
    EXPECT_EQ(ref.result.spend_usd, run.result.spend_usd) << "seed " << seed;
  }
}

// --- the one multi-study runner: no checkpoint options ----------------------

/// Metric names in export order (the first column of write_csv).
std::vector<std::string> metric_rows(const obs::MetricsRegistry& registry) {
  std::ostringstream csv;
  registry.write_csv(csv);
  std::istringstream in(csv.str());
  std::vector<std::string> rows;
  for (std::string line; std::getline(in, line);) rows.push_back(line.substr(0, line.find(',')));
  return rows;
}

TEST(CoordinatorRecoveryTest, DefaultOptionsPublishOnlyPreregisteredMetrics) {
  // Without checkpoint options and crashes the recovery runtime publishes
  // nothing of its own, so --metrics-out keeps the rows its caller
  // preregistered.
  obs::MetricsRegistry registry;
  cluster::preregister_cluster_metrics(registry);
  const std::vector<std::string> preregistered = metric_rows(registry);
  StudyManagerOptions options = mix_options(5);
  options.obs.metrics = &registry;
  const RecoverableRunResult run =
      run_recoverable_multi_study(mix_specs(5), options, CheckpointOptions{}, fixture_admit());
  ASSERT_EQ(run.result.studies.size(), 3u);
  EXPECT_EQ(metric_rows(registry), preregistered);
}

TEST(CoordinatorRecoveryTest, CrashWithoutCheckpointsReplaysFromTheStart) {
  // No frame to resume from: the crashed coordinator cold-restarts, replays
  // from t=0 past the taken crash and returns the uninterrupted run.
  const Traced ref = reference_run(9);
  StudyManagerOptions options = mix_options(9);
  cluster::CoordinatorCrashEvent crash;
  crash.at = SimTime::seconds(ref.result.total_time.to_seconds() * 0.5);
  options.fault_plan.coordinator_crashes.push_back(crash);
  const Traced run = run_recoverable(mix_specs(9), options, CheckpointOptions{}, fixture_admit());
  EXPECT_EQ(run.recovery.coordinator_crashes, 1u);
  EXPECT_EQ(run.recovery.cold_restarts, 1u);
  EXPECT_EQ(run.recovery.checkpoints_written, 0u);
  expect_identical(ref, run);
}

}  // namespace
}  // namespace hyperdrive::core
