// Typed trace events — the unified instrumentation vocabulary (DESIGN.md
// §10). Every scheduling-relevant occurrence in the system (job lifecycle,
// recovery actions, gray-failure transitions, lease protocol steps, policy
// promotions, predictor activity) is one TraceEvent record emitted through an
// obs::Scope. The sink's stream is the only event record: golden-trace tests
// compare its rendering (legacy_text / render_line below), the same stream
// users export with --trace-out.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/sim_time.hpp"

namespace hyperdrive::obs {

/// Everything the layers report, grouped by emitter; a quoted comment is the
/// kind's legacy_text rendering.
enum class EventKind {
  // --- cluster job lifecycle ----------------------------------------------
  JobStart,          ///< "start job=J machine=M"
  JobResume,         ///< "resume job=J machine=M epoch=E"
  EpochComplete,     ///< "epoch job=J epoch=E"
  JobComplete,       ///< "complete job=J"
  JobSuspend,        ///< "suspend job=J epoch=E"
  JobTerminate,      ///< "terminate job=J epoch=E"
  JobRequeue,        ///< "requeue job=J epoch=E"
  JobMigrate,        ///< "migrate job=J machine=M reason=<detail>"
  JobClone,          ///< "clone job=J epoch=E donor=<detail>" (PBT exploit)
  TargetReached,     ///< "target job=J epoch=E"
  // --- snapshots & recovery ------------------------------------------------
  SnapshotStored,        ///< "snapshot-stored job=J epoch=E"
  SnapshotUploadFailed,  ///< "snapshot-upload-failed job=J"
  SnapshotUploadLost,    ///< "snapshot-upload-lost job=J"
  SnapshotCorrupted,     ///< "snapshot-corrupted job=J"
  SnapshotRestoreFailed, ///< "snapshot-restore-failed job=J"
  // --- fail-stop faults ----------------------------------------------------
  NodeCrash,    ///< "crash machine=M"
  NodeRestart,  ///< "restart machine=M[ parked]" (detail="parked")
  // --- gray-failure state machine ------------------------------------------
  NodeSuspect,         ///< "suspect machine=M"
  NodeSuspectCleared,  ///< "suspect-cleared machine=M"
  NodeQuarantine,      ///< "quarantine machine=M[ reason=silent]"
  NodeProbation,       ///< "probation machine=M[ parked]" (detail="parked")
  NodeReinstate,       ///< "reinstate machine=M"
  HangDetected,        ///< "hang-detected job=J machine=M"
  WrongKill,           ///< "wrong-kill job=J machine=M" (ground-truth oracle)
  // --- lease protocol / multi-study ----------------------------------------
  LeaseGrant,      ///< "lease-grant machine=M"
  LeasePark,       ///< "lease-park machine=M reason=<detail>"
  LeaseMigrate,    ///< "lease-migrate job=J machine=M"
  StudyTimeout,    ///< "study-timeout"
  StudyCancelled,  ///< "study-cancelled"
  // --- elastic capacity (DESIGN.md §15) -------------------------------------
  SpotWarning,    ///< "spot-warning machine=M"
  SpotPreempted,  ///< "spot-preempted machine=M"
  NodeAcquired,   ///< "node-acquired <detail>" (detail="class=<name> count=N")
  NodeReleased,   ///< "node-released <detail>" (detail="class=<name> count=N")
  // --- policy, predictor and log bridge ------------------------------------
  PolicyPromote,      ///< job entered a policy's promising set (POP §3.2)
  PredictorFit,       ///< a learning-curve posterior was computed (cache miss)
  PredictorCacheHit,  ///< a memoized posterior was served (§5.2 caching)
  LogMessage,         ///< a util::log line routed through the obs bridge
  // --- coordinator crash-recovery (DESIGN.md §12) ---------------------------
  // CheckpointWritten rides the deterministic timeline (it fires at a sim
  // tick in every run, interrupted or not); the rest describe one concrete
  // process's recovery journey and are emitted only through the coordinator's
  // recovery sink, never the golden trace.
  CheckpointWritten,   ///< a coordinator checkpoint was captured (seq/bytes)
  CheckpointLoaded,    ///< a durable checkpoint was loaded for resume
  CheckpointFallback,  ///< newest checkpoint unusable; trying an older one
  CoordinatorCrash,    ///< the coordinator died (in-sim CoordinatorCrashEvent)
  CoordinatorResume,   ///< replay caught up with a loaded checkpoint
  ColdRestart,         ///< no usable checkpoint; restarting from study specs
  // --- service front-end (DESIGN.md §14) ------------------------------------
  // Wall-clock events of the hyperdrive_serve admission path; `job` carries
  // the submission id and they never touch a study's deterministic timeline.
  StudySubmitted,  ///< a submission arrived (detail = "tenant=<t>")
  StudyAdmitted,   ///< admission granted a run slot (detail = "tenant=<t>")
  StudyQueued,     ///< admission queued it (detail = "tenant=<t> position=<n>")
  StudyRejected,   ///< admission rejected it (detail = the reason string)
  StudyFinished,   ///< a service-run study completed (detail = "tenant=<t>")
};

[[nodiscard]] std::string_view to_string(EventKind kind) noexcept;

/// One structured observation. Integer ids use -1 for "not applicable";
/// `detail` carries the free-form qualifier of the few events that have one
/// (migration reasons, lease-park reasons, log text). Events emitted from
/// outside the simulation clock (predictor activity) carry time zero and are
/// documented as untimed.
struct TraceEvent {
  EventKind kind = EventKind::LogMessage;
  util::SimTime time = util::SimTime::zero();
  std::string study;
  std::int64_t job = -1;
  std::int64_t machine = -1;
  std::int64_t epoch = -1;
  std::string detail;

  TraceEvent() = default;
  explicit TraceEvent(EventKind k) : kind(k) {}

  // Fluent construction so emit sites stay one readable expression.
  TraceEvent&& with_job(std::int64_t id) && {
    job = id;
    return std::move(*this);
  }
  TraceEvent&& with_machine(std::int64_t id) && {
    machine = id;
    return std::move(*this);
  }
  TraceEvent&& with_epoch(std::int64_t e) && {
    epoch = e;
    return std::move(*this);
  }
  TraceEvent&& with_detail(std::string d) && {
    detail = std::move(d);
    return std::move(*this);
  }

  [[nodiscard]] bool operator==(const TraceEvent&) const = default;
};

/// The text body of an event ("epoch job=3 epoch=7") — byte-for-byte the
/// line vocabulary of the cluster's original string event log, which every
/// golden trace was recorded in.
[[nodiscard]] std::string legacy_text(const TraceEvent& event);

/// One timeline line: "t=<seconds, 9 decimals> [study=<label> ]
/// <legacy_text>" — what the golden-trace determinism tests compare.
[[nodiscard]] std::string render_line(const TraceEvent& event);

}  // namespace hyperdrive::obs
