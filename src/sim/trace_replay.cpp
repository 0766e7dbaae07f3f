#include "sim/trace_replay.hpp"

#include <algorithm>
#include <stdexcept>

namespace hyperdrive::sim {

TraceReplaySimulator::TraceReplaySimulator(const workload::Trace& trace,
                                           ReplayOptions options)
    : trace_(trace), options_(options), idle_machines_(options.machines) {
  if (options_.machines == 0) throw std::invalid_argument("need at least one machine");
  for (const auto& job : trace_.jobs) {
    JobRuntime rt;
    rt.spec = &job;
    rt.idle_seq = idle_counter_++;
    jobs_.emplace(job.job_id, std::move(rt));
  }
}

TraceReplaySimulator::JobRuntime& TraceReplaySimulator::runtime(core::JobId job) {
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) throw std::out_of_range("unknown job id");
  return it->second;
}

const TraceReplaySimulator::JobRuntime& TraceReplaySimulator::runtime(
    core::JobId job) const {
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) throw std::out_of_range("unknown job id");
  return it->second;
}

std::optional<core::JobId> TraceReplaySimulator::get_idle_job() {
  const JobRuntime* best = nullptr;
  core::JobId best_id = 0;
  for (const auto& [id, rt] : jobs_) {
    if (!rt.idle) continue;
    if (rt.status != core::JobStatus::Pending && rt.status != core::JobStatus::Suspended) {
      continue;
    }
    if (best == nullptr || rt.priority > best->priority ||
        (rt.priority == best->priority && rt.idle_seq < best->idle_seq)) {
      best = &rt;
      best_id = id;
    }
  }
  if (best == nullptr) return std::nullopt;
  return best_id;
}

bool TraceReplaySimulator::start_job(core::JobId job) {
  auto& rt = runtime(job);
  if (idle_machines_ == 0) return false;
  if (!rt.idle) return false;
  if (rt.status != core::JobStatus::Pending && rt.status != core::JobStatus::Suspended) {
    return false;
  }
  if (rt.status == core::JobStatus::Pending) ++result_.jobs_started;
  rt.idle = false;
  rt.status = core::JobStatus::Running;
  --idle_machines_;
  simulation_.schedule_after(rt.spec->curve.epoch_duration,
                             [this, job] { complete_epoch(job); });
  return true;
}

void TraceReplaySimulator::label_job(core::JobId job, double priority) {
  runtime(job).priority = priority;
}

core::JobStatus TraceReplaySimulator::job_status(core::JobId job) const {
  return runtime(job).status;
}

std::vector<core::JobId> TraceReplaySimulator::active_jobs() const {
  std::vector<core::JobId> out;
  for (const auto& [id, rt] : jobs_) {
    if (rt.status == core::JobStatus::Pending || rt.status == core::JobStatus::Running ||
        rt.status == core::JobStatus::Suspended) {
      out.push_back(id);
    }
  }
  return out;
}

const std::vector<double>& TraceReplaySimulator::perf_history(core::JobId job) const {
  return runtime(job).history;
}

util::SimTime TraceReplaySimulator::avg_epoch_duration(core::JobId job) const {
  const auto& rt = runtime(job);
  if (rt.epochs_done == 0) return util::SimTime::zero();
  return rt.execution_time / static_cast<double>(rt.epochs_done);
}

std::size_t TraceReplaySimulator::epochs_done(core::JobId job) const {
  return runtime(job).epochs_done;
}

bool TraceReplaySimulator::supports_clone() const {
  return static_cast<bool>(options_.explore);
}

bool TraceReplaySimulator::clone_job(core::JobId job, core::JobId donor,
                                     std::uint64_t stream) {
  if (!options_.explore || job == donor) return false;
  auto& dst = runtime(job);
  const auto& src = runtime(donor);
  if (!dst.idle) return false;
  if (dst.status != core::JobStatus::Pending && dst.status != core::JobStatus::Suspended) {
    return false;
  }
  if (src.epochs_done == 0) return false;  // donor has no trained state yet

  auto continued = std::make_unique<workload::TraceJob>(
      options_.explore(*dst.spec, *src.spec, src.epochs_done, stream));
  continued->job_id = job;
  // A continuation with nothing left to train would park the clone forever.
  if (continued->curve.perf.size() <= src.epochs_done) return false;

  // The target adopts the donor's weights: its observed history becomes the
  // donor's prefix and it resumes (suspended) at the donor's epoch on the
  // spliced continuation curve. Machine-time accounting stays the target's
  // own — the adopted epochs were paid for by the donor.
  if (dst.status == core::JobStatus::Pending) ++result_.jobs_started;
  dst.spec = continued.get();
  cloned_jobs_.push_back(std::move(continued));
  dst.epochs_done = src.epochs_done;
  dst.history = src.history;
  dst.status = core::JobStatus::Suspended;
  ++result_.clones;
  return true;
}

void TraceReplaySimulator::complete_epoch(core::JobId job) {
  if (done_) return;
  auto& rt = runtime(job);
  const auto& curve = rt.spec->curve;
  rt.execution_time += curve.epoch_duration;
  const double perf = curve.perf.at(rt.epochs_done);
  ++rt.epochs_done;
  rt.history.push_back(perf);

  core::JobEvent event;
  event.job_id = job;
  event.epoch = rt.epochs_done;
  event.perf = perf;
  if (!curve.secondary.empty()) event.secondary = curve.secondary.at(rt.epochs_done - 1);
  event.epoch_duration = curve.epoch_duration;
  event.now = simulation_.now();

  policy_->on_application_stat(*this, event);

  // Experiment-level target monitor (the paper's time-to-target objective),
  // optionally replaced by a model-owner-defined criterion (§9).
  if (perf > result_.best_perf) result_.best_perf = perf;
  const bool hit = options_.stop_criterion ? options_.stop_criterion(event)
                                           : perf >= trace_.target_performance;
  if (options_.stop_on_target && hit) {
    result_.reached_target = true;
    result_.time_to_target = simulation_.now();
    result_.winning_job = job;
    finish_experiment();
    return;
  }

  const core::JobDecision decision = policy_->on_iteration_finish(*this, event);

  if (decision == core::JobDecision::Continue &&
      rt.epochs_done < curve.perf.size()) {
    simulation_.schedule_after(curve.epoch_duration, [this, job] { complete_epoch(job); });
    return;
  }

  switch (decision) {
    case core::JobDecision::Continue:
      // Ran out of epochs: natural completion.
      rt.status = core::JobStatus::Completed;
      break;
    case core::JobDecision::Suspend:
      if (rt.epochs_done >= curve.perf.size()) {
        // Nothing left to train; a suspend would park the job forever.
        rt.status = core::JobStatus::Completed;
        break;
      }
      rt.status = core::JobStatus::Suspended;
      rt.idle = true;
      rt.idle_seq = idle_counter_++;
      ++rt.times_suspended;
      ++result_.suspends;
      break;
    case core::JobDecision::Terminate:
      rt.status = core::JobStatus::Terminated;
      ++result_.terminations;
      break;
  }
  release_machine_and_allocate();
}

void TraceReplaySimulator::release_machine_and_allocate() {
  ++idle_machines_;
  policy_->on_allocate(*this);
  // If nothing could be scheduled and nothing is running, the experiment is
  // over (every job completed or terminated, or the policy starved itself).
  if (idle_machines_ == options_.machines && simulation_.events_pending() == 0) {
    finish_experiment();
  }
}

void TraceReplaySimulator::finish_experiment() {
  if (done_) return;
  done_ = true;
  simulation_.stop();
}

core::ExperimentResult TraceReplaySimulator::run(core::SchedulingPolicy& policy) {
  policy_ = &policy;
  result_ = core::ExperimentResult{};
  result_.policy_name = std::string(policy.name());

  policy.on_experiment_start(*this);
  policy.on_allocate(*this);
  if (idle_machines_ == options_.machines && simulation_.events_pending() == 0) {
    // Policy refused to start anything.
    result_.total_time = util::SimTime::zero();
    return result_;
  }
  simulation_.run_until(options_.max_experiment_time);

  result_.total_time =
      done_ ? simulation_.now() : std::min(simulation_.now(), options_.max_experiment_time);
  for (const auto& [id, rt] : jobs_) {
    core::JobRunStats stats;
    stats.job_id = id;
    stats.execution_time = rt.execution_time;
    stats.epochs_completed = rt.epochs_done;
    stats.times_suspended = rt.times_suspended;
    stats.final_status = rt.status;
    stats.best_perf =
        rt.history.empty() ? 0.0 : *std::max_element(rt.history.begin(), rt.history.end());
    result_.total_machine_time += rt.execution_time;
    result_.job_stats.push_back(stats);
  }
  policy_ = nullptr;
  return result_;
}

core::ExperimentResult replay_experiment(const workload::Trace& trace,
                                         core::SchedulingPolicy& policy,
                                         const ReplayOptions& options) {
  TraceReplaySimulator simulator(trace, options);
  return simulator.run(policy);
}

}  // namespace hyperdrive::sim
