// The Scheduling Algorithm Policy (SAP) interface — HyperDrive's central
// abstraction (§4.2 ➃). A user-provided policy is written against three
// up-call events:
//
//   AllocateJobs       — an idle resource was detected; the SAP may start or
//                        resume jobs on it.
//   ApplicationStat    — a training job reported an application statistic
//                        (accuracy / reward) to its Node Agent.
//   OnIterationFinish  — a training iteration (epoch) finished; the SAP
//                        decides continue / suspend / terminate.
//
// The SAP acts on the system through SchedulerOps, which exposes exactly the
// Job Manager / Resource Manager API of §4.2 (getIdleJob, startJob,
// resumeJob, suspendJob, terminateJob, labelJob) plus the read-only
// experiment state a policy needs. Two substrates implement SchedulerOps:
// cluster::HyperDriveCluster (high-fidelity, with overheads) and
// sim::TraceReplaySimulator (the paper's §7.1 simplified simulator) — the
// same policy object runs unchanged on either, which is the design goal the
// paper states in §4 ("separation between hyperparameter search algorithms
// and their runtime environment"). Both serve the Job Manager calls from one
// sim::JobManager table, so getIdleJob / labelJob order the idle queue by
// the same rule on either substrate.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string_view>
#include <vector>

#include "util/sim_time.hpp"

namespace hyperdrive::core {

using JobId = std::uint64_t;

enum class JobStatus {
  Pending,     ///< never started
  Running,
  Suspended,   ///< snapshot taken; resumable on any machine
  Terminated,  ///< killed by policy; never resumed
  Completed,   ///< ran to max epochs
};

/// Event payload delivered with ApplicationStat / OnIterationFinish up-calls.
struct JobEvent {
  JobId job_id = 0;
  std::size_t epoch = 0;  ///< epochs completed so far (1-based count)
  double perf = 0.0;      ///< normalized primary performance after that epoch
  /// Optional secondary application metric (§9 "Ongoing Work": e.g. model
  /// sparsity while perplexity is the primary metric). NaN when the
  /// workload reports none.
  double secondary = std::numeric_limits<double>::quiet_NaN();
  util::SimTime epoch_duration = util::SimTime::zero();
  util::SimTime now = util::SimTime::zero();
};

/// Decision returned from OnIterationFinish for the reporting job.
enum class JobDecision {
  Continue,   ///< keep training on the same machine
  Suspend,    ///< snapshot and move to the idle queue (priority-ordered)
  Terminate,  ///< kill for good
};

/// Runtime surface available to a policy.
class SchedulerOps {
 public:
  virtual ~SchedulerOps() = default;

  // --- Job Manager API (§4.2) -------------------------------------------
  /// Highest-priority idle job (suspended or pending). Priority ties and
  /// unlabeled jobs follow FIFO order (§4.2 "Job Manager").
  [[nodiscard]] virtual std::optional<JobId> get_idle_job() = 0;
  /// Start (or resume) an idle job on an idle machine. Returns false if
  /// there is no idle machine or the job is not idle.
  virtual bool start_job(JobId job) = 0;
  /// Attach a scheduling priority to a job (used to order the idle queue).
  virtual void label_job(JobId job, double priority) = 0;

  // --- Resource Manager API ---------------------------------------------
  [[nodiscard]] virtual std::size_t total_machines() const = 0;
  [[nodiscard]] virtual std::size_t idle_machines() const = 0;

  // --- Experiment state (read-only) --------------------------------------
  [[nodiscard]] virtual util::SimTime now() const = 0;
  [[nodiscard]] virtual JobStatus job_status(JobId job) const = 0;
  /// All jobs not yet terminated or completed (pending, running, suspended).
  [[nodiscard]] virtual std::vector<JobId> active_jobs() const = 0;
  /// Full observed performance history of a job (entry i = epoch i+1).
  [[nodiscard]] virtual const std::vector<double>& perf_history(JobId job) const = 0;
  /// Measured average epoch duration of a job (zero if it never ran).
  [[nodiscard]] virtual util::SimTime avg_epoch_duration(JobId job) const = 0;
  [[nodiscard]] virtual std::size_t epochs_done(JobId job) const = 0;

  // --- Node health (gray-failure awareness, DESIGN.md §7) -----------------
  // Substrates without a health layer inherit the defaults (a perfectly
  // healthy, homogeneous cluster — the paper's testbed assumption), so
  // existing policies and test fakes compile and behave unchanged.
  /// Speed score below which a host counts as degraded: the health monitor
  /// counts an epoch scored below it as a slow strike, and POP migrates
  /// rather than kills a job on such a host (PopConfig::degraded_speed).
  static constexpr double kSlowHostSpeed = 0.6;
  /// EWMA speed score of the job's current host: 1.0 = nominal, below
  /// kSlowHostSpeed = degraded. 1.0 for jobs not running.
  [[nodiscard]] virtual double host_speed(JobId job) const;
  /// avg_epoch_duration with each epoch normalized to nominal node speed —
  /// what the epoch *would* have cost on a healthy machine. Policies that
  /// extrapolate time-to-accuracy should prefer this so a slow host does not
  /// masquerade as a slow configuration.
  [[nodiscard]] virtual util::SimTime normalized_epoch_duration(JobId job) const;

  // --- Weight migration (PBT exploit/explore, DESIGN.md §13) --------------
  // Substrates that can clone one job's trained state into another expose
  // the pair below; the defaults (no support) keep existing policies and
  // test fakes compiling and behaving unchanged.
  /// Whether clone_job is implemented by this substrate.
  [[nodiscard]] virtual bool supports_clone() const;
  /// Clone `donor`'s latest trained state into the idle job `job`: the
  /// target adopts the donor's weights (via the substrate's snapshot
  /// migration path) and observed history up to the donor's last completed
  /// epoch, with hyperparameters re-drawn by the substrate's explore hook
  /// from the seed-derived RNG `stream`. Returns false when cloning is
  /// unsupported, the target is not idle (pending/suspended), or the donor
  /// has no trained state yet; the target is untouched on failure.
  virtual bool clone_job(JobId job, JobId donor, std::uint64_t stream);

  // --- Experiment metadata ------------------------------------------------
  [[nodiscard]] virtual std::size_t max_epochs() const = 0;
  [[nodiscard]] virtual double target_performance() const = 0;
  /// Domain-knowledge kill threshold supplied by the model owner (§2.1).
  [[nodiscard]] virtual double kill_threshold() const = 0;
  /// Evaluation boundary b in epochs (§5.3).
  [[nodiscard]] virtual std::size_t evaluation_boundary() const = 0;
};

/// User-provided scheduling policy (SAP).
class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// AllocateJobs up-call: triggered whenever a resource goes idle.
  virtual void on_allocate(SchedulerOps& ops) = 0;

  /// ApplicationStat up-call: a stat arrived (may be more frequent than
  /// iteration boundaries). Default: ignore.
  virtual void on_application_stat(SchedulerOps& ops, const JobEvent& event);

  /// OnIterationFinish up-call: decide the fate of the reporting job.
  virtual JobDecision on_iteration_finish(SchedulerOps& ops, const JobEvent& event) = 0;

  /// Experiment-start hook (before any allocation). Default: no-op.
  virtual void on_experiment_start(SchedulerOps& ops);

  /// Cluster-membership hook: total_machines() just changed (a node crashed
  /// or came back). Policies that cache slot allocations derived from S
  /// should invalidate them here. Default: no-op.
  virtual void on_capacity_change(SchedulerOps& ops);
};

/// Model-owner-defined global termination criterion (§9 "Ongoing Work"):
/// when set on an execution substrate it replaces the default
/// perf >= target_performance experiment-stop check. Evaluated on every
/// delivered application stat; returning true ends the experiment with that
/// event's job recorded as the winner.
using GlobalStopCriterion = std::function<bool(const JobEvent&)>;

}  // namespace hyperdrive::core
