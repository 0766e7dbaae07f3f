#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/policies/default_policy.hpp"
#include "sim/trace_replay.hpp"
#include "support/single_run.hpp"
#include "workload/cifar_model.hpp"

namespace hyperdrive::cluster {
namespace {

using core::JobDecision;
using core::JobEvent;
using core::JobStatus;
using util::SimTime;

workload::Trace linear_trace(std::size_t jobs, std::size_t epochs, double target = 0.99) {
  workload::Trace trace;
  trace.workload_name = "linear";
  trace.target_performance = target;
  trace.kill_threshold = 0.0;
  trace.evaluation_boundary = 2;
  trace.max_epochs = epochs;
  for (std::size_t i = 0; i < jobs; ++i) {
    workload::TraceJob job;
    job.job_id = i + 1;
    job.curve.epoch_duration = SimTime::seconds(60);
    for (std::size_t e = 1; e <= epochs; ++e) {
      job.curve.perf.push_back(0.5 * static_cast<double>(e) / static_cast<double>(epochs));
    }
    trace.jobs.push_back(std::move(job));
  }
  return trace;
}

ClusterOptions ideal_options(std::size_t machines) {
  ClusterOptions options;
  options.machines = machines;
  options.overheads = zero_overhead_model();
  options.epoch_jitter_sigma = 0.0;
  return options;
}

TEST(ClusterTest, ZeroOverheadClusterMatchesTraceReplay) {
  const auto trace = linear_trace(6, 8);
  core::DefaultPolicy p1, p2;

  const auto cluster_result =
      run_cluster_experiment(trace, p1, ideal_options(2));
  sim::ReplayOptions replay;
  replay.machines = 2;
  const auto replay_result = sim::replay_experiment(trace, p2, replay);

  EXPECT_EQ(cluster_result.total_time, replay_result.total_time);
  EXPECT_EQ(cluster_result.total_machine_time, replay_result.total_machine_time);
  EXPECT_EQ(cluster_result.jobs_started, replay_result.jobs_started);
}

TEST(ClusterTest, JitterAndOverheadsSlowThingsDown) {
  const auto trace = linear_trace(6, 8);
  core::DefaultPolicy p1, p2;

  ClusterOptions realistic = ideal_options(2);
  realistic.overheads = cifar_overhead_model();
  realistic.epoch_jitter_sigma = 0.05;
  const auto real_result = run_cluster_experiment(trace, p1, realistic);
  const auto ideal_result = run_cluster_experiment(trace, p2, ideal_options(2));

  EXPECT_GT(real_result.total_time, ideal_result.total_time);
  // But within a small factor: these are overheads, not workload changes.
  EXPECT_LT(real_result.total_time.to_seconds(),
            ideal_result.total_time.to_seconds() * 1.2);
}

TEST(ClusterTest, DeterministicGivenSeed) {
  const auto trace = linear_trace(4, 6);
  ClusterOptions options = ideal_options(2);
  options.overheads = cifar_overhead_model();
  options.epoch_jitter_sigma = 0.05;
  options.seed = 123;
  core::DefaultPolicy p1, p2;
  const auto a = run_cluster_experiment(trace, p1, options);
  const auto b = run_cluster_experiment(trace, p2, options);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.total_machine_time, b.total_machine_time);
}

class SuspendOncePolicy final : public core::DefaultPolicy {
 public:
  JobDecision on_iteration_finish(core::SchedulerOps& ops, const JobEvent& event) override {
    if (event.epoch == 2 && suspended_.insert(event.job_id).second) {
      return JobDecision::Suspend;
    }
    return core::DefaultPolicy::on_iteration_finish(ops, event);
  }

 private:
  std::set<core::JobId> suspended_;
};

TEST(ClusterTest, SuspendRecordsOverheadSamples) {
  const auto trace = linear_trace(3, 6);
  SuspendOncePolicy policy;
  ClusterOptions options = ideal_options(1);
  options.overheads = cifar_overhead_model();
  sim::Simulation simulation;
  HyperDriveCluster cluster(trace, options, simulation);
  const auto result = run_to_end(simulation, cluster, policy);

  EXPECT_EQ(result.suspends, 3u);
  ASSERT_EQ(result.suspend_samples.size(), 3u);
  for (const auto& s : result.suspend_samples) {
    EXPECT_GT(s.latency, SimTime::zero());
    EXPECT_LE(s.latency.to_seconds(), 1.12);
    EXPECT_GT(s.snapshot_bytes, 0.0);
    EXPECT_LE(s.snapshot_bytes, 686.06e3);
  }
  // Snapshots were stored in the AppStatDB for resume.
  EXPECT_TRUE(cluster.app_stat_db().latest_snapshot(1).has_value());
  // All jobs finished despite the suspends.
  for (const auto& js : result.job_stats) {
    EXPECT_EQ(js.final_status, JobStatus::Completed);
    EXPECT_EQ(js.epochs_completed, 6u);
    EXPECT_EQ(js.times_suspended, 1u);
  }
}

TEST(ClusterTest, NodeAgentsAccumulateBusyTime) {
  const auto trace = linear_trace(4, 5);
  core::DefaultPolicy policy;
  sim::Simulation simulation;
  HyperDriveCluster cluster(trace, ideal_options(2), simulation);
  const auto result = run_to_end(simulation, cluster, policy);

  SimTime agent_total = SimTime::zero();
  std::size_t epochs = 0;
  for (const auto& agent : cluster.node_agents()) {
    agent_total += agent.busy_time();
    epochs += agent.epochs_run();
  }
  EXPECT_EQ(epochs, 4u * 5u);
  EXPECT_NEAR(agent_total.to_seconds(), result.total_machine_time.to_seconds(), 1.0);
}

TEST(ClusterTest, StatReportLatencyDelaysTargetDetection) {
  auto trace = linear_trace(1, 4, /*target=*/0.5);  // reached at final epoch
  core::DefaultPolicy p1, p2;

  const auto ideal = run_cluster_experiment(trace, p1, ideal_options(1));
  ClusterOptions with_latency = ideal_options(1);
  with_latency.overheads.stat_latency_s = {std::log(0.5), 0.0, 0.5, 0.5};  // fixed 500 ms
  const auto delayed = run_cluster_experiment(trace, p2, with_latency);

  ASSERT_TRUE(ideal.reached_target);
  ASSERT_TRUE(delayed.reached_target);
  EXPECT_NEAR((delayed.time_to_target - ideal.time_to_target).to_seconds(), 0.5, 1e-6);
}

TEST(ClusterTest, DecisionLatencyOverlapsTraining) {
  // A terminate decision at the boundary (epoch 2) arrives 90 s late; the
  // job keeps training meanwhile (overlap, §5.2) and is interrupted
  // mid-epoch-3, wasting partial work.
  const auto trace = linear_trace(1, 10, /*target=*/0.99);

  class KillAtBoundary final : public core::DefaultPolicy {
   public:
    JobDecision on_iteration_finish(core::SchedulerOps& ops, const JobEvent& event) override {
      if (event.epoch % ops.evaluation_boundary() == 0) return JobDecision::Terminate;
      return JobDecision::Continue;
    }
  };

  KillAtBoundary p1;
  ClusterOptions options = ideal_options(1);
  options.decision_latency = [](core::JobId, std::size_t, util::Rng&) {
    return SimTime::seconds(90);
  };
  const auto result = run_cluster_experiment(trace, p1, options);
  ASSERT_EQ(result.job_stats.size(), 1u);
  // The epoch-2 kill decision lands at t=210 s. By then epoch 3 has also
  // completed (t=180 s) and epoch 4 is 30 s in; that partial epoch is
  // discarded but its machine time is charged.
  EXPECT_EQ(result.job_stats[0].epochs_completed, 3u);
  EXPECT_NEAR(result.job_stats[0].execution_time.to_seconds(), 210.0, 1e-6);
  EXPECT_EQ(result.job_stats[0].final_status, JobStatus::Terminated);
}

TEST(ClusterTest, MaxExperimentTimeEnforced) {
  const auto trace = linear_trace(10, 100);
  core::DefaultPolicy policy;
  ClusterOptions options = ideal_options(1);
  options.max_experiment_time = SimTime::minutes(10);
  const auto result = run_cluster_experiment(trace, policy, options);
  EXPECT_FALSE(result.reached_target);
  EXPECT_LE(result.total_time, SimTime::minutes(10));
}

}  // namespace
}  // namespace hyperdrive::cluster
