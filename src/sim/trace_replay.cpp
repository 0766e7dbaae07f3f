#include "sim/trace_replay.hpp"

#include <algorithm>
#include <stdexcept>

namespace hyperdrive::sim {

bool reaches_target(const ReplayOptions& options, double target,
                    const core::JobEvent& event, core::ExperimentResult& result) {
  if (event.perf > result.best_perf) result.best_perf = event.perf;
  // A model-owner-defined criterion (§9) replaces perf >= target.
  const bool hit =
      options.stop_criterion ? options.stop_criterion(event) : event.perf >= target;
  if (!options.stop_on_target || !hit) return false;
  result.reached_target = true;
  result.time_to_target = event.now;
  result.winning_job = event.job_id;
  return true;
}

TraceReplaySimulator::TraceReplaySimulator(const workload::Trace& trace,
                                           ReplayOptions options)
    : trace_(trace), options_(options), jobs_(trace), idle_machines_(options.machines) {
  if (options_.machines == 0) throw std::invalid_argument("need at least one machine");
}

std::optional<core::JobId> TraceReplaySimulator::get_idle_job() {
  return jobs_.get_idle_job();
}

bool TraceReplaySimulator::start_job(core::JobId job) {
  auto& rt = jobs_.job(job);
  if (idle_machines_ == 0) return false;
  if (!rt.queued()) return false;
  if (rt.status == core::JobStatus::Pending) ++result_.jobs_started;
  jobs_.dequeue_idle(job);
  rt.status = core::JobStatus::Running;
  --idle_machines_;
  simulation_.schedule_after(rt.spec->curve.epoch_duration,
                             [this, job] { complete_epoch(job); });
  return true;
}

void TraceReplaySimulator::label_job(core::JobId job, double priority) {
  jobs_.label_job(job, priority);
}

core::JobStatus TraceReplaySimulator::job_status(core::JobId job) const {
  return jobs_.job(job).status;
}

std::vector<core::JobId> TraceReplaySimulator::active_jobs() const {
  return jobs_.active_jobs();
}

const std::vector<double>& TraceReplaySimulator::perf_history(core::JobId job) const {
  return jobs_.job(job).history;
}

util::SimTime TraceReplaySimulator::avg_epoch_duration(core::JobId job) const {
  const auto& rt = jobs_.job(job);
  if (rt.epochs_done == 0) return util::SimTime::zero();
  return rt.execution_time / static_cast<double>(rt.epochs_done);
}

std::size_t TraceReplaySimulator::epochs_done(core::JobId job) const {
  return jobs_.job(job).epochs_done;
}

bool TraceReplaySimulator::supports_clone() const {
  return static_cast<bool>(options_.explore);
}

bool TraceReplaySimulator::clone_job(core::JobId job, core::JobId donor,
                                     std::uint64_t stream) {
  if (!jobs_.clone(job, donor, options_.explore, stream,
                   [this](core::JobId id) -> const std::vector<double>& {
                     return jobs_.job(id).history;
                   },
                   result_)) {
    return false;
  }
  // The target adopts the donor's weights, so its observed history becomes
  // the donor's prefix.
  jobs_.job(job).history = jobs_.job(donor).history;
  return true;
}

void TraceReplaySimulator::complete_epoch(core::JobId job) {
  if (done_) return;
  auto& rt = jobs_.job(job);
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
  if (reaches_target(options_, trace_.target_performance, event, result_)) {
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
      jobs_.enqueue_idle(job);
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
  jobs_.collect(result_, [this](core::JobId id) -> const std::vector<double>& {
    return jobs_.job(id).history;
  });
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
