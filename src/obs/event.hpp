// Typed trace events — the unified instrumentation vocabulary (DESIGN.md
// §10). Every scheduling-relevant occurrence in the system (job lifecycle,
// recovery actions, gray-failure transitions, lease protocol steps, capacity
// changes, checkpoints, service admissions) is one TraceEvent record emitted
// through an obs::Scope. The sink's stream is the only event record, and its
// one text form is the timeline row (obs/export.hpp): what --trace-out
// exports and what golden-trace tests compare.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/sim_time.hpp"

namespace hyperdrive::obs {

/// Everything the layers report, grouped by emitter. A comment names the
/// fields the kind sets besides `time` and `study` (J job, M machine, E epoch,
/// and `detail`); the fields it does not name stay absent.
enum class EventKind {
  // --- cluster job lifecycle ----------------------------------------------
  JobStart,          ///< J M
  JobResume,         ///< J M E
  EpochComplete,     ///< J E
  JobComplete,       ///< J
  JobSuspend,        ///< J E
  JobTerminate,      ///< J E
  JobRequeue,        ///< J E
  JobMigrate,        ///< J M, detail = reason (slow|hung|silent|spot)
  JobClone,          ///< J E, detail = donor job id (PBT exploit)
  TargetReached,     ///< J E
  // --- snapshots & recovery ------------------------------------------------
  SnapshotStored,        ///< J E
  SnapshotUploadFailed,  ///< J
  SnapshotUploadLost,    ///< J
  SnapshotCorrupted,     ///< J
  SnapshotRestoreFailed, ///< J
  // --- fail-stop faults ----------------------------------------------------
  NodeCrash,    ///< M
  NodeRestart,  ///< M, detail = "parked" when the node rejoins parked
  // --- gray-failure state machine ------------------------------------------
  NodeSuspect,         ///< M
  NodeSuspectCleared,  ///< M
  NodeQuarantine,      ///< M, detail = "silent" for a watchdog quarantine
  NodeProbation,       ///< M, detail = "parked" when the node is parked
  NodeReinstate,       ///< M
  HangDetected,        ///< J M
  WrongKill,           ///< J M (ground-truth oracle)
  // --- lease protocol / multi-study ----------------------------------------
  LeaseGrant,      ///< M
  LeasePark,       ///< M, detail = reason (reclaim|reclaim-offline|...)
  LeaseMigrate,    ///< J M
  StudyTimeout,    ///< no fields
  StudyCancelled,  ///< no fields
  // --- elastic capacity (DESIGN.md §15) -------------------------------------
  SpotWarning,    ///< M
  SpotPreempted,  ///< M
  NodeAcquired,   ///< detail = "class=<name> count=N"
  NodeReleased,   ///< detail = "class=<name> count=N"
  // --- coordinator crash-recovery (DESIGN.md §12) ---------------------------
  // Rides the deterministic timeline: it fires at a sim tick in every run,
  // interrupted or not. What recovery did is CoordinatorRecoveryStats.
  CheckpointWritten,  ///< detail = "seq=<n> bytes=<n>"
  // --- service front-end (DESIGN.md §14) ------------------------------------
  // Wall-clock events of the hyperdrive_serve admission path; J carries the
  // submission id and they never touch a study's deterministic timeline.
  StudySubmitted,  ///< J, detail = "tenant=<t>"
  StudyAdmitted,   ///< J, detail = "tenant=<t>"
  StudyQueued,     ///< J, detail = "tenant=<t> position=<n>"
  StudyRejected,   ///< J once allocated, detail = the reason string
  StudyFinished,   ///< J, detail = "tenant=<t>"
};

[[nodiscard]] std::string_view to_string(EventKind kind) noexcept;

/// One structured observation. Integer ids use -1 for "not applicable";
/// `detail` carries the free-form qualifier of the few events that have one
/// (migration and lease-park reasons, checkpoint sequence numbers).
struct TraceEvent {
  EventKind kind;
  util::SimTime time = util::SimTime::zero();
  std::string study;
  std::int64_t job = -1;
  std::int64_t machine = -1;
  std::int64_t epoch = -1;
  std::string detail;

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

}  // namespace hyperdrive::obs
