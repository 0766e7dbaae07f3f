#include "core/policies/pop_policy.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace hyperdrive::core {

PopPolicy::PopPolicy(PopConfig config) : config_(std::move(config)) {
  if (!config_.predictor) throw std::invalid_argument("PopPolicy requires a curve predictor");
}

void PopPolicy::on_experiment_start(SchedulerOps& ops) {
  start_time_ = ops.now();
  target_ = std::isnan(config_.target) ? ops.target_performance() : config_.target;
  kill_threshold_ =
      std::isnan(config_.kill_threshold) ? ops.kill_threshold() : config_.kill_threshold;
  boundary_ = config_.boundary != 0 ? config_.boundary : ops.evaluation_boundary();
  if (boundary_ == 0) boundary_ = 10;
  prune_deferred_.clear();
}

double PopPolicy::confidence(JobId job) const {
  const auto it = beliefs_.find(job);
  return it == beliefs_.end() ? std::numeric_limits<double>::quiet_NaN()
                              : it->second.confidence;
}

util::SimTime PopPolicy::expected_remaining_time(JobId job) const {
  const auto it = beliefs_.find(job);
  return it == beliefs_.end() ? util::SimTime::infinity() : it->second.ert;
}

bool PopPolicy::update_belief(SchedulerOps& ops, JobId job,
                              const std::vector<double>& history) {
  if (history.size() < config_.min_history) return false;

  // Already there: a job that has observed the target has confidence 1 and
  // no remaining time (relevant when the experiment runs past the first hit,
  // e.g. best-within-budget mode).
  for (const double y : history) {
    if (y >= target_) {
      beliefs_[job] = JobBelief{1.0, util::SimTime::zero(), history.size()};
      return true;
    }
  }

  const util::SimTime tpass = ops.now() - start_time_;
  const util::SimTime remaining = config_.tmax - tpass;
  if (remaining <= util::SimTime::zero()) {
    beliefs_[job] = JobBelief{0.0, util::SimTime::infinity(), history.size()};
    return true;
  }

  // Speed-aware mode extrapolates from the epoch cost at *nominal* node
  // speed: a configuration is not slow just because its host is (the
  // observed average would inflate ERT and depress confidence for jobs that
  // had the bad luck of a degraded machine). Falls back to the raw average
  // on substrates without a health layer.
  util::SimTime epoch_duration = config_.speed_aware
                                     ? ops.normalized_epoch_duration(job)
                                     : ops.avg_epoch_duration(job);
  if (epoch_duration <= util::SimTime::zero()) return false;

  // M_i = (Tmax - Tpass) / Epoch_i, additionally capped by the epochs the
  // job can still train (it cannot run past the workload's max epoch). The
  // cap is applied in double: an unbounded Tmax makes by_time +inf, which
  // has no size_t value.
  const double by_time = remaining / epoch_duration;
  const std::size_t by_epochs =
      ops.max_epochs() > history.size() ? ops.max_epochs() - history.size() : 0;
  const std::size_t m_max = by_time >= static_cast<double>(by_epochs)
                                ? by_epochs
                                : static_cast<std::size_t>(by_time);
  if (m_max == 0) {
    beliefs_[job] = JobBelief{0.0, util::SimTime::infinity(), history.size()};
    return true;
  }

  std::vector<double> future_epochs(m_max);
  for (std::size_t m = 0; m < m_max; ++m) {
    future_epochs[m] = static_cast<double>(history.size() + m + 1);
  }
  const auto prediction = config_.predictor->predict(
      history, future_epochs, static_cast<double>(ops.max_epochs()));
  ++predictions_;
  if (prediction.empty()) return false;

  // pmf of first reaching the target at the m-th future epoch (Eq. 2), with
  // the §3.1.1 truncation: stop accumulating once the partial ERT exceeds
  // the remaining experiment time.
  double p_sum = 0.0;
  double x = 0.0;  // expected remaining epochs, conditioned on the pmf mass
  double prev_reach = 0.0;
  bool truncated = false;
  for (std::size_t m = 1; m <= m_max; ++m) {
    const double reach = prediction.prob_reached_by(m - 1, target_);
    const double pm = std::max(0.0, reach - prev_reach);
    prev_reach = reach;
    p_sum += pm;
    x += static_cast<double>(m) * pm;
    if (epoch_duration * x > remaining) {
      truncated = true;
      break;
    }
  }

  JobBelief belief;
  belief.confidence = std::clamp(p_sum, 0.0, 1.0);
  belief.ert = truncated ? remaining : epoch_duration * x;
  if (p_sum <= 0.0) belief.ert = util::SimTime::infinity();
  belief.predicted_at_epoch = history.size();
  beliefs_[job] = belief;
  return true;
}

bool PopPolicy::classify_and_label(SchedulerOps& ops, JobId job) {
  const auto active = ops.active_jobs();
  const double total_slots = static_cast<double>(ops.total_machines());

  // Gather the confidence values of active jobs (jobs never predicted count
  // as confidence 0 — they are opportunistic by definition).
  std::vector<std::pair<double, JobId>> confident;  // (p, job), p > 0
  std::size_t with_confidence = 0;
  for (const JobId id : active) {
    const auto it = beliefs_.find(id);
    if (it == beliefs_.end()) continue;
    ++with_confidence;
    if (it->second.confidence > 0.0) confident.emplace_back(it->second.confidence, id);
  }
  std::sort(confident.begin(), confident.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  PopSnapshot snapshot;
  snapshot.time = ops.now();
  snapshot.active_jobs = active.size();
  for (const JobId id : active) {
    const auto status = ops.job_status(id);
    if (status == JobStatus::Running || status == JobStatus::Suspended) {
      ++snapshot.scheduled_jobs;
    }
    if (status == JobStatus::Running) ++snapshot.running_jobs;
  }
  snapshot.jobs_with_confidence = with_confidence;

  // Static-threshold ablation (§2.2c): promising = everyone above the fixed
  // p_thred, regardless of available slots.
  if (!std::isnan(config_.static_threshold)) {
    promising_.clear();
    for (const auto& [p, id] : confident) {
      if (p >= config_.static_threshold) promising_.insert(id);
    }
    for (const JobId id : active) {
      ops.label_job(id, promising_.count(id) > 0 ? beliefs_[id].confidence : 0.0);
    }
    snapshot.promising_jobs = promising_.size();
    snapshot.threshold = config_.static_threshold;
    snapshot.effective_slots = static_cast<double>(promising_.size());
    snapshots_.push_back(std::move(snapshot));
    return promising_.count(job) > 0;
  }

  // Sweep candidate thresholds: the observed confidence values themselves.
  // After sorting descending, N_satisfying(confident[i].first) == i + 1.
  double best_eff = 0.0;
  double best_p = 0.0;
  std::size_t best_count = 0;
  for (std::size_t i = 0; i < confident.size(); ++i) {
    const double p = confident[i].first;
    const double desired = static_cast<double>(i + 1) * config_.slots_per_job;
    const double deserved = total_slots * p;
    const double eff = std::min(desired, deserved);
    if (config_.record_allocation_curves) {
      snapshot.curves.push_back({p, desired, deserved});
    }
    // Prefer the higher threshold on ties: fewer, stronger promising jobs.
    if (eff > best_eff + 1e-12) {
      best_eff = eff;
      best_p = p;
      best_count = i + 1;
    }
  }

  // The promising pool size is limited by both curves at the chosen p*:
  // S_effective(p*) slots fund floor-ish S_eff/k dedicated jobs. Rounding
  // (rather than flooring) lets a single high-confidence job (p near 1 on a
  // one-machine cluster, S*p slightly below 1) keep its dedicated slot.
  std::size_t n_promising = 0;
  if (best_count > 0 && config_.slots_per_job > 0.0) {
    n_promising = std::min(
        best_count,
        static_cast<std::size_t>(std::llround(best_eff / config_.slots_per_job)));
  }

  promising_.clear();
  for (std::size_t i = 0; i < n_promising && i < confident.size(); ++i) {
    promising_.insert(confident[i].second);
  }

  // labelJob: promising jobs carry their confidence as priority so the Job
  // Manager resumes them first; everything else rejoins the FIFO class.
  for (const JobId id : active) {
    ops.label_job(id, promising_.count(id) > 0 ? beliefs_[id].confidence : 0.0);
  }

  snapshot.promising_jobs = promising_.size();
  snapshot.threshold = best_p;
  snapshot.effective_slots = best_eff;
  snapshots_.push_back(std::move(snapshot));

  return promising_.count(job) > 0;
}

void PopPolicy::on_capacity_change(SchedulerOps& ops) {
  ++capacity_changes_;
  // The promising set was sized against the old S via S_deserved(p) = S * p
  // (§3.2); with a different machine count those slot counts are stale.
  // Drop the set and re-derive labels — the next boundary classification
  // rebuilds it against the new capacity.
  promising_.clear();
  for (const JobId id : ops.active_jobs()) ops.label_job(id, 0.0);
}

JobDecision PopPolicy::on_iteration_finish(SchedulerOps& ops, const JobEvent& event) {
  // Step 0: the model owner's rule sees every iteration first (§9); it can
  // veto POP entirely (e.g. kill on a secondary-metric constraint).
  if (config_.owner_rule) {
    if (const auto forced = config_.owner_rule(event)) return *forced;
  }

  // Dynamic-target mode: once the current target is observed, raise the bar
  // and invalidate the cached beliefs (they were relative to the old target).
  if (config_.dynamic_target_increment > 0.0 && event.perf >= target_) {
    target_ = event.perf + config_.dynamic_target_increment;
    ++target_raises_;
    beliefs_.clear();
    promising_.clear();
  }

  if (event.epoch % boundary_ != 0) return JobDecision::Continue;

  // Step 1 (§5.3): domain-knowledge kill threshold, checked before spending
  // any prediction effort.
  if (config_.use_kill_threshold && event.perf <= kill_threshold_) {
    return JobDecision::Terminate;
  }

  // Step 2: refresh this job's belief (expected remaining time + confidence).
  const auto& history = ops.perf_history(event.job_id);
  if (!update_belief(ops, event.job_id, history)) return JobDecision::Continue;

  // Step 3: prune hopeless jobs (confidence lower bound). On a degraded host
  // the time-based evidence is tainted (even the normalized extrapolation
  // lags while the EWMA converges), so the benefit of the doubt goes to the
  // configuration: migrate it to a healthy node instead of killing it — the
  // wrong-kill a gray failure would otherwise cause. The deferral is one-shot
  // per job: a second hopeless verdict terminates even on a degraded host,
  // otherwise a cluster whose every machine is (intermittently) slow could
  // bounce a doomed job between hosts until it runs to completion.
  if (beliefs_[event.job_id].confidence < config_.prune_confidence) {
    if (config_.speed_aware && ops.host_speed(event.job_id) < config_.degraded_speed &&
        prune_deferred_.insert(event.job_id).second) {
      ++slow_host_migrations_;
      return JobDecision::Suspend;
    }
    return JobDecision::Terminate;
  }

  // Step 4: dynamic threshold + classification + labelling.
  const bool is_promising = classify_and_label(ops, event.job_id);
  if (is_promising) {
    // A promising configuration deserves a healthy host: crawling on a
    // degraded node burns exactly the dedicated slots the classification
    // granted it. Suspend so it resumes — with its confidence as priority —
    // on the fastest machine available.
    if (config_.speed_aware && ops.host_speed(event.job_id) < config_.degraded_speed) {
      ++slow_host_migrations_;
      return JobDecision::Suspend;
    }
    return JobDecision::Continue;
  }

  // Step 5: opportunistic -> rotate, but only if someone is waiting.
  if (config_.rotate_opportunistic && ops.get_idle_job().has_value()) {
    return JobDecision::Suspend;
  }
  return JobDecision::Continue;
}

}  // namespace hyperdrive::core
