// Job Manager (§4.2 ➄): the one job table both substrates own. It tracks
// every job's lifecycle state and provides the start/resume/suspend/label
// bookkeeping the SAP drives: the priority label orders the idle queue;
// unlabeled jobs (and ties) are FIFO. It also holds the two table-wide steps
// both substrates take, the PBT continuation mint and the per-job result
// assembly. sim::TraceReplaySimulator owns a JobManager<JobRecord>;
// cluster::HyperDriveCluster extends the record with placement, in-flight
// events and incarnation (cluster::ManagedJob) and owns a
// JobManager<ManagedJob>. Both substrates therefore apply one set of rules
// in one order, and the Fig. 12a gap between them measures the cluster's
// overheads, not drift between two copies.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/experiment_result.hpp"
#include "core/sap.hpp"
#include "util/sim_time.hpp"
#include "workload/trace.hpp"

namespace hyperdrive::sim {

/// One job's substrate-neutral lifecycle record.
struct JobRecord {
  core::JobId id = 0;
  /// The ground truth the job trains against: its trace job, or a PBT
  /// continuation the table minted.
  const workload::TraceJob* spec = nullptr;
  core::JobStatus status = core::JobStatus::Pending;
  std::size_t epochs_done = 0;

  // Idle-queue bookkeeping.
  double priority = 0.0;
  std::uint64_t idle_seq = 0;
  bool idle = true;

  /// Machine time the job occupied (on the cluster including overheads and
  /// partial epochs).
  util::SimTime execution_time = util::SimTime::zero();
  std::size_t times_suspended = 0;
  /// Observed performance history, kept here by the replay. The cluster's
  /// history is its AppStatDb, which deduplicates redelivered stats; this
  /// stays empty there.
  std::vector<double> history;

  /// In the idle queue: not placed, and pending or suspended.
  [[nodiscard]] bool queued() const noexcept {
    return idle &&
           (status == core::JobStatus::Pending || status == core::JobStatus::Suspended);
  }
};

template <typename Job = JobRecord>
class JobManager {
  static_assert(std::is_base_of_v<JobRecord, Job>, "a job record extends sim::JobRecord");

 public:
  explicit JobManager(const workload::Trace& trace) {
    for (const auto& spec : trace.jobs) {
      Job job;
      job.id = spec.job_id;
      job.spec = &spec;
      job.idle_seq = idle_counter_++;
      jobs_.emplace(job.id, std::move(job));
    }
  }

  [[nodiscard]] Job& job(core::JobId id) {
    return const_cast<Job&>(std::as_const(*this).job(id));
  }
  [[nodiscard]] const Job& job(core::JobId id) const {
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) throw std::out_of_range("unknown job id");
    return it->second;
  }

  /// getIdleJob(): highest priority first, FIFO within ties (§4.2).
  [[nodiscard]] std::optional<core::JobId> get_idle_job() const {
    const Job* best = nullptr;
    for (const auto& [id, job] : jobs_) {
      if (!job.queued()) continue;
      if (best == nullptr || job.priority > best->priority ||
          (job.priority == best->priority && job.idle_seq < best->idle_seq)) {
        best = &job;
      }
    }
    if (best == nullptr) return std::nullopt;
    return best->id;
  }
  /// labelJob(jobID, priority) (§4.2).
  void label_job(core::JobId id, double priority) { job(id).priority = priority; }
  /// Move a job (back) into the idle queue, at the FIFO tail of its
  /// priority class.
  void enqueue_idle(core::JobId id) {
    auto& j = job(id);
    j.idle = true;
    j.idle_seq = idle_counter_++;
  }
  /// Remove from the idle queue (when placed on a machine).
  void dequeue_idle(core::JobId id) { job(id).idle = false; }

  [[nodiscard]] std::vector<core::JobId> active_jobs() const {
    std::vector<core::JobId> out;
    for (const auto& [id, job] : jobs_) {
      if (job.status == core::JobStatus::Pending || job.status == core::JobStatus::Running ||
          job.status == core::JobStatus::Suspended) {
        out.push_back(id);
      }
    }
    return out;
  }
  [[nodiscard]] const std::map<core::JobId, Job>& all() const noexcept { return jobs_; }
  [[nodiscard]] std::map<core::JobId, Job>& all() noexcept { return jobs_; }

  /// FIFO tiebreak counter behind idle_seq — part of the scheduling state a
  /// coordinator checkpoint must fingerprint (cluster::encode_state).
  [[nodiscard]] std::uint64_t idle_counter() const noexcept { return idle_counter_; }

  /// PBT exploit (DESIGN.md §13): move the queued job `id` onto `donor`'s
  /// trained state. The clone epoch is the length of the donor's observed
  /// history, `history(donor)` (the substrate's own record of it). The job
  /// trains on from there against the continuation `explore` returns, which
  /// this table owns (the input trace is frozen and shared), and is left
  /// Suspended at the clone epoch; `result` counts the clone, and the start
  /// when the job was pending. Machine-time accounting stays the job's own:
  /// the adopted epochs were paid for by the donor. Returns false, changing
  /// nothing, when cloning is unsupported (no hook), `id` is the donor or is
  /// not queued, the donor has no trained state yet, or the continuation
  /// has nothing left to train.
  template <typename History>
  bool clone(core::JobId id, core::JobId donor, const workload::ExploreFn& explore,
             std::uint64_t stream, const History& history, core::ExperimentResult& result) {
    if (!explore || id == donor) return false;
    auto& target = job(id);
    const auto& src = job(donor);
    if (!target.queued()) return false;
    const std::size_t epoch = history(donor).size();
    if (epoch == 0) return false;

    auto continued = std::make_unique<workload::TraceJob>(
        explore(*target.spec, *src.spec, epoch, stream));
    continued->job_id = id;
    // A continuation with nothing left to train would park the clone forever.
    if (continued->curve.perf.size() <= epoch) return false;

    if (target.status == core::JobStatus::Pending) ++result.jobs_started;
    target.spec = continued.get();
    continuations_.push_back(std::move(continued));
    target.epochs_done = epoch;
    target.status = core::JobStatus::Suspended;
    ++result.clones;
    return true;
  }

  /// Append one JobRunStats per job, in id order, stamped with
  /// `result.study`, and add each job's machine time to
  /// result.total_machine_time. `history(id)` is the substrate's record of
  /// the job's observed performance, whose maximum is the job's best.
  template <typename History>
  void collect(core::ExperimentResult& result, const History& history) const {
    for (const auto& [id, job] : jobs_) {
      core::JobRunStats stats;
      stats.job_id = id;
      stats.execution_time = job.execution_time;
      stats.epochs_completed = job.epochs_done;
      stats.times_suspended = job.times_suspended;
      stats.final_status = job.status;
      stats.study = result.study;
      const std::vector<double>& observed = history(id);
      stats.best_perf =
          observed.empty() ? 0.0 : *std::max_element(observed.begin(), observed.end());
      result.total_machine_time += job.execution_time;
      result.job_stats.push_back(stats);
    }
  }

 private:
  std::map<core::JobId, Job> jobs_;  // ordered for determinism
  std::uint64_t idle_counter_ = 0;
  /// Ground truth minted by clone().
  std::vector<std::unique_ptr<workload::TraceJob>> continuations_;
};

}  // namespace hyperdrive::sim
