// Behavioural tests for the four SAPs on handcrafted traces where the right
// decision is unambiguous.
#include <gtest/gtest.h>

#include <cmath>

#include "core/experiment_runner.hpp"
#include "core/policies/bandit_policy.hpp"
#include "core/policies/default_policy.hpp"
#include "core/policies/earlyterm_policy.hpp"
#include "core/policies/pop_policy.hpp"
#include "obs/sink.hpp"
#include "sim/trace_replay.hpp"
#include "support/timeline.hpp"

namespace hyperdrive::core {
namespace {

using util::SimTime;

/// A trace with explicit per-job curves.
workload::Trace trace_from_curves(std::vector<std::vector<double>> curves, double target,
                                  double kill_threshold, std::size_t boundary) {
  workload::Trace trace;
  trace.workload_name = "handmade";
  trace.target_performance = target;
  trace.kill_threshold = kill_threshold;
  trace.evaluation_boundary = boundary;
  trace.max_epochs = 0;
  for (std::size_t i = 0; i < curves.size(); ++i) {
    workload::TraceJob job;
    job.job_id = i + 1;
    job.curve.epoch_duration = SimTime::seconds(60);
    job.curve.perf = std::move(curves[i]);
    trace.max_epochs = std::max(trace.max_epochs, job.curve.perf.size());
    trace.jobs.push_back(std::move(job));
  }
  return trace;
}

std::vector<double> ramp(double from, double to, std::size_t n) {
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    ys[i] = from + (to - from) * static_cast<double>(i + 1) / static_cast<double>(n);
  }
  return ys;
}

std::vector<double> flat(double v, std::size_t n) { return std::vector<double>(n, v); }

/// Realistic saturating learning curve: from + (to - from) * (1 - e^{-k e}).
std::vector<double> saturating(double from, double to, std::size_t n, double k) {
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    ys[i] = from + (to - from) * (1.0 - std::exp(-k * static_cast<double>(i + 1)));
  }
  return ys;
}

JobStatus final_status(const ExperimentResult& result, JobId job) {
  for (const auto& js : result.job_stats) {
    if (js.job_id == job) return js.final_status;
  }
  ADD_FAILURE() << "job not found";
  return JobStatus::Pending;
}

const JobRunStats& stats_of(const ExperimentResult& result, JobId job) {
  for (const auto& js : result.job_stats) {
    if (js.job_id == job) return js;
  }
  throw std::out_of_range("job not found");
}

// ---------------------------------------------------------------- Default --

TEST(DefaultPolicyTest, NeverTerminatesAnything) {
  const auto trace =
      trace_from_curves({flat(0.1, 8), ramp(0.1, 0.6, 8)}, 0.99, 0.0, 2);
  DefaultPolicy policy;
  sim::ReplayOptions options;
  options.machines = 1;
  const auto result = sim::replay_experiment(trace, policy, options);
  EXPECT_EQ(result.terminations, 0u);
  EXPECT_EQ(result.suspends, 0u);
  EXPECT_EQ(final_status(result, 1), JobStatus::Completed);
  EXPECT_EQ(final_status(result, 2), JobStatus::Completed);
}

TEST(DefaultPolicyTest, FillsAllMachines) {
  const auto trace = trace_from_curves(
      {flat(0.1, 4), flat(0.1, 4), flat(0.1, 4), flat(0.1, 4)}, 0.99, 0.0, 2);
  DefaultPolicy policy;
  sim::ReplayOptions options;
  options.machines = 4;
  const auto result = sim::replay_experiment(trace, policy, options);
  // All four run in parallel: wall time = one job's duration.
  EXPECT_EQ(result.total_time, SimTime::seconds(4 * 60));
}

// ----------------------------------------------------------------- Bandit --

TEST(BanditPolicyTest, KillsJobsFarBehindGlobalBest) {
  // Job 1 rockets to 0.8; job 2 crawls at 0.1. With epsilon = 0.5, job 2
  // dies at its first boundary once globalBest > 0.15.
  const auto trace =
      trace_from_curves({ramp(0.4, 0.8, 12), flat(0.1, 12)}, 0.99, 0.0, 4);
  BanditPolicy policy;
  sim::ReplayOptions options;
  options.machines = 2;
  const auto result = sim::replay_experiment(trace, policy, options);
  EXPECT_EQ(final_status(result, 1), JobStatus::Completed);
  EXPECT_EQ(final_status(result, 2), JobStatus::Terminated);
  EXPECT_EQ(stats_of(result, 2).epochs_completed, 4u);  // first boundary
}

TEST(BanditPolicyTest, KeepsJobsWithinEpsilonOfBest) {
  // Job 2 is behind but within 1.5x: 0.6 * 1.5 = 0.9 > 0.8.
  const auto trace =
      trace_from_curves({flat(0.8, 12), flat(0.6, 12)}, 0.99, 0.0, 4);
  BanditPolicy policy;
  sim::ReplayOptions options;
  options.machines = 2;
  const auto result = sim::replay_experiment(trace, policy, options);
  EXPECT_EQ(final_status(result, 2), JobStatus::Completed);
  EXPECT_EQ(result.terminations, 0u);
}

TEST(BanditPolicyTest, ChecksOnlyAtBoundaries) {
  // Job 2 would fail the test at epoch 1, but the boundary is 6.
  const auto trace =
      trace_from_curves({flat(0.8, 12), flat(0.1, 12)}, 0.99, 0.0, 6);
  BanditPolicy policy;
  sim::ReplayOptions options;
  options.machines = 2;
  const auto result = sim::replay_experiment(trace, policy, options);
  EXPECT_EQ(stats_of(result, 2).epochs_completed, 6u);
}

TEST(BanditPolicyTest, EpsilonConfigurable) {
  // With a huge epsilon nothing ever dies.
  const auto trace =
      trace_from_curves({flat(0.8, 8), flat(0.05, 8)}, 0.99, 0.0, 2);
  BanditConfig config;
  config.epsilon = 50.0;
  BanditPolicy policy(config);
  sim::ReplayOptions options;
  options.machines = 2;
  const auto result = sim::replay_experiment(trace, policy, options);
  EXPECT_EQ(result.terminations, 0u);
}

TEST(BanditPolicyTest, UsesBestNotLatestPerformance) {
  // Job 2 peaked at 0.7 then regressed; its *best* keeps it alive.
  std::vector<double> decayed = ramp(0.3, 0.7, 6);
  for (int i = 0; i < 6; ++i) decayed.push_back(0.3);
  const auto trace =
      trace_from_curves({flat(0.8, 12), std::move(decayed)}, 0.99, 0.0, 12);
  BanditPolicy policy;
  sim::ReplayOptions options;
  options.machines = 2;
  const auto result = sim::replay_experiment(trace, policy, options);
  EXPECT_EQ(final_status(result, 2), JobStatus::Completed);
}

// -------------------------------------------------------------- EarlyTerm --

EarlyTermConfig et_config(std::size_t boundary = 4) {
  EarlyTermConfig config;
  config.boundary = boundary;
  config.predictor = make_default_predictor(7);
  return config;
}

TEST(EarlyTermPolicyTest, RequiresPredictor) {
  EXPECT_THROW(EarlyTermPolicy(EarlyTermConfig{}), std::invalid_argument);
}

TEST(EarlyTermPolicyTest, TerminatesHopelesslyFlatJob) {
  // Job 1 reaches 0.8 fast; job 2 is pinned at 0.1 — P(y_max >= 0.8) ~ 0.
  const auto trace =
      trace_from_curves({ramp(0.5, 0.8, 24), flat(0.1, 24)}, 0.99, 0.0, 4);
  EarlyTermPolicy policy(et_config());
  sim::ReplayOptions options;
  options.machines = 2;
  const auto result = sim::replay_experiment(trace, policy, options);
  EXPECT_EQ(final_status(result, 2), JobStatus::Terminated);
  EXPECT_EQ(final_status(result, 1), JobStatus::Completed);
  EXPECT_GT(policy.predictions_made(), 0u);
}

TEST(EarlyTermPolicyTest, KeepsJobsTrendingTowardBest) {
  // Both jobs climb toward similar asymptotes; neither should die.
  const auto trace = trace_from_curves(
      {ramp(0.3, 0.75, 24), ramp(0.25, 0.7, 24)}, 0.99, 0.0, 4);
  EarlyTermPolicy policy(et_config());
  sim::ReplayOptions options;
  options.machines = 2;
  const auto result = sim::replay_experiment(trace, policy, options);
  EXPECT_EQ(result.terminations, 0u);
}

TEST(EarlyTermPolicyTest, GlobalBestHolderNeverSelfTerminates) {
  const auto trace = trace_from_curves({ramp(0.2, 0.6, 24)}, 0.99, 0.0, 4);
  EarlyTermPolicy policy(et_config());
  sim::ReplayOptions options;
  options.machines = 1;
  const auto result = sim::replay_experiment(trace, policy, options);
  EXPECT_EQ(final_status(result, 1), JobStatus::Completed);
}

// -------------------------------------------------------------------- POP --

PopConfig pop_config(std::size_t boundary = 4) {
  PopConfig config;
  config.boundary = boundary;
  config.tmax = SimTime::hours(24);
  config.predictor = make_default_predictor(11);
  return config;
}

TEST(PopPolicyTest, RequiresPredictor) {
  EXPECT_THROW(PopPolicy(PopConfig{}), std::invalid_argument);
}

TEST(PopPolicyTest, KillThresholdCullsNonLearnersAtFirstBoundary) {
  // Kill threshold 0.15: job 2 never exceeds it.
  const auto trace = trace_from_curves(
      {saturating(0.3, 0.8, 24, 0.2), flat(0.1, 24)}, 0.99, 0.15, 4);
  PopPolicy policy(pop_config());
  sim::ReplayOptions options;
  options.machines = 2;
  const auto result = sim::replay_experiment(trace, policy, options);
  EXPECT_EQ(final_status(result, 2), JobStatus::Terminated);
  EXPECT_EQ(stats_of(result, 2).epochs_completed, 4u);
  // The kill decision needed no prediction for job 2 at that boundary.
}

TEST(PopPolicyTest, PrunesLowConfidenceJobs) {
  // Job 2 plateaus at 0.3 with target 0.9: confidence ~ 0 -> pruned.
  std::vector<double> plateau = ramp(0.1, 0.3, 8);
  for (int i = 0; i < 16; ++i) plateau.push_back(0.3);
  const auto trace = trace_from_curves(
      {saturating(0.3, 0.95, 24, 0.2), std::move(plateau)}, 0.9, 0.0, 4);
  PopPolicy policy(pop_config());
  sim::ReplayOptions options;
  options.machines = 2;
  const auto result = sim::replay_experiment(trace, policy, options);
  EXPECT_EQ(final_status(result, 2), JobStatus::Terminated);
}

TEST(PopPolicyTest, ReachesTargetViaPromisingJob) {
  const auto trace = trace_from_curves(
      {saturating(0.3, 0.95, 24, 0.15), flat(0.1, 24), flat(0.1, 24)}, 0.9, 0.15, 4);
  PopPolicy policy(pop_config());
  sim::ReplayOptions options;
  options.machines = 1;
  const auto result = sim::replay_experiment(trace, policy, options);
  EXPECT_TRUE(result.reached_target);
  EXPECT_EQ(result.winning_job, 1u);
}

TEST(PopPolicyTest, ConfidenceAndErtAreWellFormed) {
  const auto trace = trace_from_curves(
      {saturating(0.3, 0.96, 24, 0.2), saturating(0.2, 0.5, 24, 0.2)}, 0.9, 0.0, 4);
  PopPolicy policy(pop_config());
  sim::ReplayOptions options;
  options.machines = 2;
  options.stop_on_target = false;
  (void)sim::replay_experiment(trace, policy, options);
  for (JobId id = 1; id <= 2; ++id) {
    const double p = policy.confidence(id);
    if (!std::isnan(p)) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
  // The strong climber should have earned high confidence of reaching 0.9.
  EXPECT_GT(policy.confidence(1), 0.5);
  EXPECT_LT(policy.expected_remaining_time(1), SimTime::hours(24));
}

TEST(PopPolicyTest, SnapshotsRecordClassificationRounds) {
  const auto trace = trace_from_curves({saturating(0.3, 0.92, 24, 0.2),
                                        saturating(0.25, 0.88, 24, 0.2), flat(0.3, 24)},
                                       0.85, 0.0, 4);
  PopConfig config = pop_config();
  config.record_allocation_curves = true;
  PopPolicy policy(config);
  sim::ReplayOptions options;
  options.machines = 2;
  options.stop_on_target = false;
  (void)sim::replay_experiment(trace, policy, options);

  ASSERT_GT(policy.snapshots().size(), 0u);
  for (const auto& snap : policy.snapshots()) {
    EXPECT_LE(snap.promising_jobs, snap.active_jobs);
    EXPECT_GE(snap.threshold, 0.0);
    EXPECT_LE(snap.threshold, 1.0);
    // Desired slots are non-increasing, deserved non-decreasing in p.
    for (std::size_t i = 1; i < snap.curves.size(); ++i) {
      EXPECT_LE(snap.curves[i][0], snap.curves[i - 1][0]);   // p sorted desc
      EXPECT_GE(snap.curves[i][1], snap.curves[i - 1][1]);   // desired grows as p drops
      EXPECT_LE(snap.curves[i][2], snap.curves[i - 1][2]);   // deserved shrinks
    }
  }
}

TEST(PopPolicyTest, OpportunisticRotationSharesTheMachine) {
  // Two mediocre climbers, one machine: neither is confident enough for a
  // dedicated slot, so POP rotates between them rather than letting the
  // first hog the machine to completion. Pruning is disabled to isolate the
  // rotation behaviour.
  const auto trace = trace_from_curves(
      {saturating(0.2, 0.55, 24, 0.2), saturating(0.2, 0.5, 24, 0.2)}, 0.95, 0.0, 4);
  PopConfig rot_config = pop_config();
  rot_config.prune_confidence = 0.0;
  PopPolicy policy(rot_config);
  sim::ReplayOptions options;
  options.machines = 1;
  options.stop_on_target = false;
  const auto result = sim::replay_experiment(trace, policy, options);
  // Job 2 must have run some epochs before job 1 finished all 24.
  EXPECT_GT(result.suspends, 0u);
}

TEST(PopPolicyTest, RotationDisabledAblation) {
  const auto trace = trace_from_curves(
      {saturating(0.2, 0.55, 24, 0.2), saturating(0.2, 0.5, 24, 0.2)}, 0.95, 0.0, 4);
  PopConfig config = pop_config();
  config.prune_confidence = 0.0;
  config.rotate_opportunistic = false;
  PopPolicy policy(config);
  sim::ReplayOptions options;
  options.machines = 1;
  options.stop_on_target = false;
  const auto result = sim::replay_experiment(trace, policy, options);
  EXPECT_EQ(result.suspends, 0u);
}

TEST(PopPolicyTest, UnboundedTmaxSchedulesLikeAFarFiniteOne) {
  // With Tmax unbounded, the epochs a job can still train are the only cap on
  // POP's prediction horizon, exactly as under a Tmax far past the run's end.
  const auto trace = trace_from_curves({saturating(0.3, 0.95, 24, 0.15),
                                        saturating(0.2, 0.5, 24, 0.2), flat(0.1, 24)},
                                       0.9, 0.0, 4);
  const auto run = [&](SimTime tmax, std::vector<std::string>& rows) {
    PopConfig config = pop_config();
    config.tmax = tmax;
    PopPolicy policy(config);
    RunnerOptions options;
    options.substrate = Substrate::Cluster;
    options.machines = 1;
    options.max_experiment_time = tmax;
    obs::RecordingSink sink;
    options.obs.sink = &sink;
    const ExperimentResult result = run_experiment(trace, policy, options);
    rows = timeline(sink);
    return result;
  };
  std::vector<std::string> unbounded_rows;
  std::vector<std::string> far_rows;
  const ExperimentResult unbounded = run(SimTime::infinity(), unbounded_rows);
  const ExperimentResult far = run(SimTime::seconds(1e9), far_rows);
  EXPECT_TRUE(unbounded.reached_target);
  EXPECT_EQ(unbounded.winning_job, 1u);
  EXPECT_EQ(unbounded.time_to_target, far.time_to_target);
  EXPECT_EQ(unbounded.total_time, far.total_time);
  EXPECT_EQ(unbounded.terminations, far.terminations);
  EXPECT_EQ(unbounded_rows, far_rows);
}

TEST(PopPolicyTest, PromisingJobsGetPriorityLabels) {
  // Three jobs, one machine. The strong climber, once suspended by rotation
  // or finished, must be preferred over FIFO order.
  const auto trace = trace_from_curves({saturating(0.25, 0.95, 24, 0.2),
                                        saturating(0.2, 0.45, 24, 0.2),
                                        saturating(0.2, 0.4, 24, 0.2)},
                                       0.9, 0.0, 4);
  PopPolicy policy(pop_config());
  sim::ReplayOptions options;
  options.machines = 1;
  const auto result = sim::replay_experiment(trace, policy, options);
  EXPECT_TRUE(result.reached_target);
  EXPECT_EQ(result.winning_job, 1u);
}

}  // namespace
}  // namespace hyperdrive::core
