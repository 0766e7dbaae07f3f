// Crash-recoverable coordinator runtime (DESIGN.md §12).
//
// run_recoverable_multi_study wraps StudyManager in a recovery loop that
// survives coordinator death — both the simulated kind (CoordinatorCrashEvent
// in the fault plan kills the manager mid-run) and the real kind (the process
// is SIGKILLed and a fresh process resumes with `--resume-from DIR`).
//
// The simulation's event queue holds closures and cannot be serialized, so
// resume is *deterministic replay*: a fresh StudyManager is rebuilt from the
// checkpoint's recorded inputs (spec texts, fault-plan text, options image)
// and re-run from t=0. When the replay's periodic checkpoint reaches the
// resumed sequence number, its re-captured state is compared byte-for-byte
// against the durable frame: a match proves the replay reconverged (the run
// then simply continues live past the crash point); a mismatch poisons that
// frame and the recovery ladder falls back to the next older checkpoint, and
// ultimately to a cold restart from the recorded study specs.
//
// Because the final surviving incarnation replays the whole timeline, its
// event stream, MultiStudyResult, CSV and trace artifacts are byte-identical
// to an uninterrupted run — the headline invariant the Recovery test suites
// and the CI crash-resume smoke job hold this file to.
//
// It is the only multi-study runner (the CLI's --study mode and every
// service study). With default CheckpointOptions it writes no frame, buffers
// events only for a caller's sink and publishes no zero recovery.* counter,
// so its artifacts are the plain StudyManager's; an in-simulation crash then
// cold-restarts from t=0.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/study/checkpoint.hpp"
#include "core/study/study_manager.hpp"
#include "obs/metrics.hpp"

namespace hyperdrive::core {

struct CheckpointOptions {
  /// Durable checkpoint directory; empty = in-memory only (in-sim crashes
  /// still recover, but nothing survives the process).
  std::string dir;
  /// Periodic capture cadence; zero disables periodic checkpoints (a final
  /// on-demand frame is still written when `dir` is set).
  util::SimTime every = util::SimTime::zero();
  /// Resume from the newest valid frame in `dir` instead of starting fresh.
  bool resume = false;
  /// Testing hook (CI crash-resume smoke): raise(SIGKILL) immediately after
  /// the Nth durable checkpoint write in this process. 0 = never.
  std::size_t kill_after_checkpoints = 0;
};

/// What recovery did, process-scoped (unlike cluster::RecoveryStats, which
/// counts simulated node faults inside the run).
struct CoordinatorRecoveryStats {
  std::uint64_t coordinator_crashes = 0;    ///< in-sim CoordinatorCrashEvents taken
  std::uint64_t checkpoints_written = 0;    ///< frames captured (incl. rewrites)
  std::uint64_t checkpoint_bytes_total = 0;
  std::uint64_t checkpoint_bytes_last = 0;
  std::uint64_t checkpoint_loads = 0;       ///< frames adopted as resume targets
  std::uint64_t checkpoint_fallbacks = 0;   ///< frames rejected (decode / divergence)
  std::uint64_t cold_restarts = 0;          ///< recoveries with no usable frame
  std::uint64_t replay_verifications = 0;   ///< replays proven byte-identical
};

struct RecoverableRunResult {
  MultiStudyResult result;
  CoordinatorRecoveryStats recovery;
};

/// Admission hook: called once per spec per incarnation, in spec order, on a
/// fresh StudyManager. The default admits by name resolution
/// (StudyManager::add_study(spec)); tests that run custom traces / policy
/// factories substitute their own admission here, keyed on spec.name.
using AdmitStudyFn = std::function<void(StudyManager&, const StudySpec&)>;

/// Run `specs` under `options` with coordinator crash-recovery. When
/// `checkpoint.resume` is set, `specs` may be empty — the spec texts recorded
/// in the newest valid checkpoint (its `--study` inputs) are replayed
/// instead. Throws std::runtime_error when resume finds no usable frame and
/// no specs were given, or when recovery fails to make progress.
[[nodiscard]] RecoverableRunResult run_recoverable_multi_study(
    const std::vector<StudySpec>& specs, const StudyManagerOptions& options,
    const CheckpointOptions& checkpoint, const AdmitStudyFn& admit = {});

/// Pin the registration (= CSV export) order of every metric the recovery
/// runtime publishes, so --metrics-out stays byte-deterministic regardless of
/// when checkpoints land. Call after cluster::preregister_cluster_metrics.
void preregister_checkpoint_metrics(obs::MetricsRegistry& registry);

}  // namespace hyperdrive::core
