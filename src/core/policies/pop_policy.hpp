// POP — the paper's scheduling algorithm (§3, §5.3). Classifies active
// configurations into Promising / Opportunistic / Poor and infuses the
// classification with resource allocation:
//
//  Poor        — below the domain-knowledge kill threshold at an evaluation
//                boundary, or prediction confidence p < 0.05: terminated.
//  Promising   — high confidence of reaching the target within the remaining
//                experiment time: given dedicated slots, labelled with
//                priority p so they resume first.
//  Opportunistic — everything else: round-robin over the leftover slots
//                (suspended at each boundary so the pool rotates).
//
// Per §3.1.1 the expected remaining time of job i is
//     ERT_i = x_i * Epoch_i,   x_i = sum_m m * p_m   (Eq. 2-3)
// with p_m the pmf of first reaching y_target at future epoch m, derived
// from the learning-curve posterior. The confidence is p = sum_m p_m,
// truncated once the partial ERT exceeds Tmax - Tpass.
//
// Per §3.2 the number of promising slots maximizes
//     S_effective(p) = min(S_desired(p), S_deserved(p))
//                    = min(N_satisfying(p) * k, S * p)
// over the observed confidence values p, which is the crossing point of the
// two curves in Fig. 4a/4b.
//
// Implementation notes vs. the paper:
//   * p_m is computed from P(reached-by-m), the running max over posterior
//     curves, which is monotone in m — this keeps the pmf non-negative even
//     for non-monotone posterior samples (the paper's instantaneous
//     P(y(m) >= y) differences can go negative; the semantics "first epoch
//     the target is reached" are unchanged).
//   * An opportunistic job is only suspended when another idle job is
//     waiting; suspending into an empty queue would pay snapshot cost for
//     nothing.
#pragma once

#include <array>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/policies/default_policy.hpp"
#include "curve/predictor.hpp"
#include "util/sim_time.hpp"

namespace hyperdrive::core {

struct PopConfig {
  /// The user's maximum experiment time Tmax (§3.1.1 input parameter).
  util::SimTime tmax = util::SimTime::hours(24);
  /// Target performance y_target; NaN = use the workload's.
  double target = std::numeric_limits<double>::quiet_NaN();
  /// Evaluation boundary b; 0 = use the workload's (10 supervised / RL).
  std::size_t boundary = 0;
  /// Kill threshold; NaN = use the workload's domain knowledge.
  double kill_threshold = std::numeric_limits<double>::quiet_NaN();
  /// Terminate jobs whose confidence p falls below this (§5.3).
  double prune_confidence = 0.05;
  /// Dedicated slots per promising configuration (k in §3.2).
  double slots_per_job = 1.0;
  /// Observations required before the first prediction.
  std::size_t min_history = 4;
  /// Suspend opportunistic jobs at boundaries to rotate the pool. Disable
  /// for the no-suspend ablation (jobs then keep running FIFO).
  bool rotate_opportunistic = true;
  /// Ablation of §2.2c: use a fixed confidence threshold p_thred instead of
  /// the dynamic desired/deserved crossing. NaN (default) = dynamic.
  double static_threshold = std::numeric_limits<double>::quiet_NaN();
  /// Ablation of §2.1: disable the domain-knowledge kill rule.
  bool use_kill_threshold = true;
  /// Record the desired/deserved slot curves at every classification
  /// (Fig. 4a/4b); costs memory, off by default.
  bool record_allocation_curves = false;
  /// Gray-failure awareness (DESIGN.md §7). When true, time-to-accuracy is
  /// extrapolated from SchedulerOps::normalized_epoch_duration (epoch cost
  /// at nominal node speed) instead of the raw average, and a job whose host
  /// speed is below `degraded_speed` is migrated (suspend -> resume on a
  /// healthier node) where POP would otherwise kill it on time-based
  /// evidence or leave a promising config crawling. On substrates without a
  /// health layer the hooks default to "everything nominal", so this flag
  /// changes nothing there.
  bool speed_aware = true;
  /// Host speed score below which a node counts as degraded for the
  /// migrate-not-kill rules (mirror of HealthOptions::slow_speed).
  double degraded_speed = 0.6;
  /// Model-owner rule evaluated first at every iteration (§2.1 / §9 "model-
  /// owner-defined metrics and inputs"): may force a decision (e.g. kill a
  /// job whose secondary metric proves it cannot meet a sparsity goal) or
  /// return nullopt to defer to POP.
  std::function<std::optional<JobDecision>(const JobEvent&)> owner_rule;
  /// Dynamic target mode (§9 "User inputs"): when the current target is
  /// reached and the experiment keeps running (stop_on_target = false), the
  /// target is raised by this increment — a way to search without a known
  /// y_target. 0 disables.
  double dynamic_target_increment = 0.0;
  std::shared_ptr<const curve::CurvePredictor> predictor;
};

/// One classification round's bookkeeping, for Fig. 4 and the tests.
struct PopSnapshot {
  util::SimTime time = util::SimTime::zero();
  std::size_t active_jobs = 0;  ///< pending + running + suspended
  /// Jobs actually occupying or contending for machines (running or
  /// suspended).
  std::size_t scheduled_jobs = 0;
  /// Jobs currently holding a machine — the denominator of Fig. 4c's
  /// promising/active ratio (active jobs in the paper's plot are the ones
  /// occupying slots).
  std::size_t running_jobs = 0;
  std::size_t jobs_with_confidence = 0;
  std::size_t promising_jobs = 0;
  double threshold = 0.0;          ///< chosen p* (0 when nothing qualifies)
  double effective_slots = 0.0;    ///< S_effective(p*)
  /// (p, S_desired(p), S_deserved(p)) samples, present only when
  /// record_allocation_curves is set.
  std::vector<std::array<double, 3>> curves;
};

class PopPolicy final : public DefaultPolicy {
 public:
  explicit PopPolicy(PopConfig config);

  [[nodiscard]] std::string_view name() const noexcept override { return "pop"; }

  void on_experiment_start(SchedulerOps& ops) override;
  JobDecision on_iteration_finish(SchedulerOps& ops, const JobEvent& event) override;
  void on_capacity_change(SchedulerOps& ops) override;

  [[nodiscard]] const std::vector<PopSnapshot>& snapshots() const noexcept {
    return snapshots_;
  }
  [[nodiscard]] std::size_t predictions_made() const noexcept { return predictions_; }
  /// Current promising set (the P of P/O/P). Exposed for invariant tests.
  [[nodiscard]] const std::set<JobId>& promising_jobs() const noexcept { return promising_; }
  /// Latest confidence for a job (NaN if never predicted). Exposed for tests.
  [[nodiscard]] double confidence(JobId job) const;
  /// Latest expected remaining time for a job (infinity if unknown).
  [[nodiscard]] util::SimTime expected_remaining_time(JobId job) const;
  /// The target currently in force (rises in dynamic-target mode).
  [[nodiscard]] double current_target() const noexcept { return target_; }
  /// Times the dynamic target was raised.
  [[nodiscard]] std::size_t target_raises() const noexcept { return target_raises_; }
  /// Times cluster membership changed under this policy (crash/restart).
  [[nodiscard]] std::size_t capacity_changes() const noexcept { return capacity_changes_; }
  /// Suspends issued to move a job off a degraded host instead of killing or
  /// continuing it (speed_aware mode).
  [[nodiscard]] std::size_t slow_host_migrations() const noexcept {
    return slow_host_migrations_;
  }

 private:
  struct JobBelief {
    double confidence = 0.0;
    util::SimTime ert = util::SimTime::infinity();
    std::size_t predicted_at_epoch = 0;
  };

  /// Update `belief` for the job from its history (Eq. 1-3). Returns false
  /// if no prediction was possible.
  bool update_belief(SchedulerOps& ops, JobId job, const std::vector<double>& history);
  /// Recompute p*, the promising set, and labels; returns whether `job` is
  /// in the promising set.
  bool classify_and_label(SchedulerOps& ops, JobId job);

  PopConfig config_;
  double target_ = 0.0;
  double kill_threshold_ = 0.0;
  std::size_t boundary_ = 10;
  util::SimTime start_time_ = util::SimTime::zero();
  std::map<JobId, JobBelief> beliefs_;
  std::set<JobId> promising_;
  std::vector<PopSnapshot> snapshots_;
  std::size_t predictions_ = 0;
  std::size_t target_raises_ = 0;
  std::size_t capacity_changes_ = 0;
  std::size_t slow_host_migrations_ = 0;
  /// Jobs whose hopeless verdict was already deferred once because they sat
  /// on a degraded host; the next hopeless verdict terminates them.
  std::set<JobId> prune_deferred_;
};

}  // namespace hyperdrive::core
