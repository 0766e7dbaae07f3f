#include "obs/event.hpp"

namespace hyperdrive::obs {

std::string_view to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::JobStart: return "start";
    case EventKind::JobResume: return "resume";
    case EventKind::EpochComplete: return "epoch";
    case EventKind::JobComplete: return "complete";
    case EventKind::JobSuspend: return "suspend";
    case EventKind::JobTerminate: return "terminate";
    case EventKind::JobRequeue: return "requeue";
    case EventKind::JobMigrate: return "migrate";
    case EventKind::JobClone: return "clone";
    case EventKind::TargetReached: return "target";
    case EventKind::SnapshotStored: return "snapshot-stored";
    case EventKind::SnapshotUploadFailed: return "snapshot-upload-failed";
    case EventKind::SnapshotUploadLost: return "snapshot-upload-lost";
    case EventKind::SnapshotCorrupted: return "snapshot-corrupted";
    case EventKind::SnapshotRestoreFailed: return "snapshot-restore-failed";
    case EventKind::NodeCrash: return "crash";
    case EventKind::NodeRestart: return "restart";
    case EventKind::NodeSuspect: return "suspect";
    case EventKind::NodeSuspectCleared: return "suspect-cleared";
    case EventKind::NodeQuarantine: return "quarantine";
    case EventKind::NodeProbation: return "probation";
    case EventKind::NodeReinstate: return "reinstate";
    case EventKind::HangDetected: return "hang-detected";
    case EventKind::WrongKill: return "wrong-kill";
    case EventKind::LeaseGrant: return "lease-grant";
    case EventKind::LeasePark: return "lease-park";
    case EventKind::LeaseMigrate: return "lease-migrate";
    case EventKind::StudyTimeout: return "study-timeout";
    case EventKind::StudyCancelled: return "study-cancelled";
    case EventKind::SpotWarning: return "spot-warning";
    case EventKind::SpotPreempted: return "spot-preempted";
    case EventKind::NodeAcquired: return "node-acquired";
    case EventKind::NodeReleased: return "node-released";
    case EventKind::CheckpointWritten: return "checkpoint-written";
    case EventKind::StudySubmitted: return "study-submitted";
    case EventKind::StudyAdmitted: return "study-admitted";
    case EventKind::StudyQueued: return "study-queued";
    case EventKind::StudyRejected: return "study-rejected";
    case EventKind::StudyFinished: return "study-finished";
  }
  return "?";
}

}  // namespace hyperdrive::obs
