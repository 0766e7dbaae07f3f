// Job Manager (§4.2 ➄): tracks every job's lifecycle state and provides the
// start/resume/suspend/terminate/label API the SAP drives. The priority
// label orders the idle queue; unlabeled jobs (and ties) are FIFO.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "cluster/resource_manager.hpp"
#include "core/sap.hpp"
#include "sim/simulation.hpp"
#include "util/sim_time.hpp"
#include "workload/trace.hpp"

namespace hyperdrive::cluster {

struct ManagedJob {
  core::JobId id = 0;
  const workload::TraceJob* spec = nullptr;
  core::JobStatus status = core::JobStatus::Pending;
  std::size_t epochs_done = 0;

  // Idle-queue bookkeeping.
  double priority = 0.0;
  std::uint64_t idle_seq = 0;
  bool idle = true;

  // Placement & execution accounting.
  std::optional<MachineId> machine;
  util::SimTime execution_time = util::SimTime::zero();  ///< incl. overheads & partial epochs
  util::SimTime training_time = util::SimTime::zero();   ///< completed-epoch time only
  std::size_t times_suspended = 0;

  // In-flight epoch (cancelled when a suspend/terminate decision lands
  // mid-epoch — the paper's overlapped prediction, §5.2).
  sim::EventHandle pending_epoch = 0;
  util::SimTime epoch_started_at = util::SimTime::zero();
  bool epoch_in_flight = false;

  // Blocking-decision mode (§5.2 ablation): the job idles on its machine
  // while the prediction-based decision is computed.
  bool waiting_decision = false;
  util::SimTime wait_started_at = util::SimTime::zero();

  // Suspend in progress: the snapshot-capture event that will ship the image
  // to storage (cancelled if the node crashes during the capture window).
  sim::EventHandle pending_suspend = 0;
  bool suspend_in_flight = false;

  // Gray-failure mitigation (DESIGN.md §7).
  /// Expected (pre-degradation) duration of the epoch in flight; baseline for
  /// the speed score and the progress deadline.
  util::SimTime epoch_expected = util::SimTime::zero();
  /// Straggler watchdog: fires when an epoch runs kHangDeadlineFactor x its
  /// expected duration without completing; cancelled on completion/interrupt.
  sim::EventHandle progress_deadline = 0;
  bool deadline_armed = false;
  /// training_time with each epoch scaled by the host's speed score — the
  /// cost the epochs would have had on healthy nodes (feeds
  /// SchedulerOps::normalized_epoch_duration).
  util::SimTime normalized_training_time = util::SimTime::zero();

  // Bumped every time the job is forcibly rolled back/requeued (crash, lost
  // snapshot). Events scheduled against an older incarnation — a startup
  // completion, a pending policy decision — are stale and must not act.
  std::uint64_t incarnation = 0;
};

class JobManager {
 public:
  explicit JobManager(const workload::Trace& trace);

  [[nodiscard]] ManagedJob& job(core::JobId id);
  [[nodiscard]] const ManagedJob& job(core::JobId id) const;

  /// getIdleJob(): highest priority first, FIFO within ties (§4.2).
  [[nodiscard]] std::optional<core::JobId> get_idle_job() const;
  /// labelJob(jobID, priority) (§4.2).
  void label_job(core::JobId id, double priority);
  /// Move a job (back) into the idle queue, at the FIFO tail of its
  /// priority class.
  void enqueue_idle(core::JobId id);
  /// Remove from the idle queue (when placed on a machine).
  void dequeue_idle(core::JobId id);

  [[nodiscard]] std::vector<core::JobId> active_jobs() const;
  [[nodiscard]] const std::map<core::JobId, ManagedJob>& all() const noexcept {
    return jobs_;
  }
  [[nodiscard]] std::map<core::JobId, ManagedJob>& all() noexcept { return jobs_; }

  /// FIFO tiebreak counter behind idle_seq — part of the scheduling state a
  /// coordinator checkpoint must fingerprint (cluster::encode_state).
  [[nodiscard]] std::uint64_t idle_counter() const noexcept { return idle_counter_; }

 private:
  std::map<core::JobId, ManagedJob> jobs_;  // ordered for determinism
  std::uint64_t idle_counter_ = 0;
};

}  // namespace hyperdrive::cluster
