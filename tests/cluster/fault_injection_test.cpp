// The fault-injection + reliability battery. Covers, in order:
//   * FaultInjector: decisions are a pure function of (plan seed, run seed);
//   * MessageBus reliability: ack/retransmit delivers exactly once through
//     heavy drop/duplication, endpoint-down handling, give-up callbacks;
//   * HyperDriveCluster crash recovery: requeue, capacity shrink/grow,
//     snapshot-loss and corruption fallbacks, no hung experiments;
//   * golden-trace determinism: same seed + same fault plan => byte-identical
//     event logs and identical recovery counters; different seed diverges;
//   * the acceptance scenario: a CIFAR sweep under 5% message drop plus a
//     mid-run node crash still reaches the target with bounded degradation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/experiment_runner.hpp"
#include "core/policies/default_policy.hpp"
#include "core/policies/pop_policy.hpp"
#include "obs/sink.hpp"
#include "support/single_run.hpp"
#include "support/timeline.hpp"
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

ClusterOptions base_options(std::size_t machines) {
  ClusterOptions options;
  options.machines = machines;
  options.overheads = cifar_overhead_model();
  options.epoch_jitter_sigma = 0.05;
  options.seed = 7;
  return options;
}

/// Suspends every job at epoch 2 once — exercises the snapshot path.
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

// ------------------------------------------------------------ FaultInjector --

TEST(FaultInjectorTest, DecisionStreamIsPureFunctionOfSeeds) {
  FaultPlan plan;
  plan.seed = 99;
  MessageFaultProfile faults;
  faults.drop_prob = 0.3;
  faults.duplicate_prob = 0.2;
  faults.delay_prob = 0.25;
  plan.set_uniform_message_faults(faults);
  plan.snapshot_upload_fail_prob = 0.4;
  plan.snapshot_corrupt_prob = 0.4;

  FaultInjector a(plan, 1), b(plan, 1), c(plan, 2);
  bool diverged = false;
  for (int i = 0; i < 200; ++i) {
    const bool drop_a = a.should_drop(MessageType::ReportStat);
    const bool drop_b = b.should_drop(MessageType::ReportStat);
    EXPECT_EQ(drop_a, drop_b);
    EXPECT_EQ(a.should_duplicate(MessageType::SnapshotUpload),
              b.should_duplicate(MessageType::SnapshotUpload));
    EXPECT_EQ(a.extra_delay(MessageType::ReportStat), b.extra_delay(MessageType::ReportStat));
    EXPECT_EQ(a.should_fail_upload(), b.should_fail_upload());
    EXPECT_EQ(a.should_corrupt_snapshot(), b.should_corrupt_snapshot());
    if (drop_a != c.should_drop(MessageType::ReportStat)) diverged = true;
  }
  EXPECT_TRUE(diverged) << "a different run seed must produce a different stream";
  EXPECT_EQ(a.stats().messages_dropped, b.stats().messages_dropped);
  EXPECT_GT(a.stats().messages_dropped, 0u);
}

TEST(FaultInjectorTest, ZeroProbabilityClassesConsumeNoRandomness) {
  // Enabling only drops must not perturb the duplicate/delay streams: the
  // same drop decisions appear whether or not other classes are queried.
  FaultPlan plan;
  plan.seed = 5;
  MessageFaultProfile faults;
  faults.drop_prob = 0.5;
  plan.set_uniform_message_faults(faults);

  FaultInjector only_drops(plan, 1), interleaved(plan, 1);
  for (int i = 0; i < 100; ++i) {
    const bool a = only_drops.should_drop(MessageType::ReportStat);
    // These three return immediately (probability zero) without draws.
    (void)interleaved.should_duplicate(MessageType::ReportStat);
    (void)interleaved.extra_delay(MessageType::ReportStat);
    (void)interleaved.should_fail_upload();
    EXPECT_EQ(a, interleaved.should_drop(MessageType::ReportStat)) << "draw " << i;
  }
}

TEST(FaultInjectorTest, CorruptFlipsExactlyOneBit) {
  FaultPlan plan;
  plan.seed = 3;
  plan.snapshot_corrupt_prob = 1.0;
  FaultInjector injector(plan, 1);
  std::vector<std::uint8_t> image(64, 0);
  injector.corrupt(image);
  int bits = 0;
  for (const auto byte : image) bits += __builtin_popcount(byte);
  EXPECT_EQ(bits, 1);
  std::vector<std::uint8_t> empty;
  injector.corrupt(empty);  // must not crash
  EXPECT_TRUE(empty.empty());
}

// ------------------------------------------------- MessageBus reliability --

MessageBusOptions reliable_bus(double latency_s) {
  MessageBusOptions options;
  options.latency_mu = 0.0;
  options.latency_sigma = 0.0;
  options.latency_min_s = latency_s;
  options.latency_max_s = latency_s;
  options.bandwidth_bps = 0.0;
  options.reliability.enabled = true;
  options.reliability.ack_timeout_s = 0.5;
  options.reliability.max_attempts = 32;
  return options;
}

TEST(ReliableBusTest, DeliversExactlyOnceThroughHeavyDropAndDuplication) {
  sim::Simulation simulation;
  MessageBus bus(simulation, reliable_bus(0.01), 1);
  FaultPlan plan;
  plan.seed = 11;
  MessageFaultProfile faults;
  faults.drop_prob = 0.4;
  faults.duplicate_prob = 0.3;
  faults.delay_prob = 0.2;
  faults.delay_mean_s = 0.05;
  plan.set_uniform_message_faults(faults);
  FaultInjector injector(plan, 1);
  bus.set_fault_injector(&injector);

  std::map<std::uint64_t, int> deliveries;  // job_id -> handler invocations
  const auto scheduler = bus.register_endpoint("scheduler", [&](const Message& m) {
    ++deliveries[m.job_id];
  });

  constexpr int kMessages = 200;
  int failures = 0;
  for (int i = 0; i < kMessages; ++i) {
    Message m;
    m.type = MessageType::ReportStat;
    m.to = scheduler;
    m.job_id = static_cast<std::uint64_t>(i);
    bus.send(m, [&](const Message&) { ++failures; });
  }
  simulation.run();

  // At-least-once + receiver dedup = exactly once, for every single message.
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(bus.in_flight(), 0u);
  ASSERT_EQ(deliveries.size(), static_cast<std::size_t>(kMessages));
  for (const auto& [job, count] : deliveries) {
    EXPECT_EQ(count, 1) << "message " << job << " delivered " << count << " times";
  }
  // The fault plan really was active, and recovery really was exercised.
  const auto& stats = bus.stats();
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_GT(stats.retransmissions, 0u);
  EXPECT_GT(stats.duplicates_suppressed, 0u);
  EXPECT_GT(stats.acks_sent, 0u);
  EXPECT_EQ(stats.messages, static_cast<std::uint64_t>(kMessages));
}

TEST(ReliableBusTest, GivesUpAfterMaxAttemptsAndReportsFailure) {
  sim::Simulation simulation;
  auto options = reliable_bus(0.01);
  options.reliability.max_attempts = 4;
  MessageBus bus(simulation, options, 1);
  FaultPlan plan;
  plan.seed = 1;
  MessageFaultProfile faults;
  faults.drop_prob = 1.0;  // the network eats everything
  plan.set_uniform_message_faults(faults);
  FaultInjector injector(plan, 1);
  bus.set_fault_injector(&injector);

  int handled = 0, failed = 0;
  const auto scheduler =
      bus.register_endpoint("scheduler", [&](const Message&) { ++handled; });
  Message m;
  m.type = MessageType::ReportStat;
  m.to = scheduler;
  bus.send(m, [&](const Message& lost) {
    ++failed;
    EXPECT_EQ(lost.type, MessageType::ReportStat);
  });
  simulation.run();

  EXPECT_EQ(handled, 0);
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(bus.stats().undeliverable, 1u);
  EXPECT_EQ(bus.stats().retransmissions, 3u);  // attempts 2..4
  EXPECT_EQ(bus.in_flight(), 0u);
}

TEST(ReliableBusTest, RetriesRideOutADownEndpoint) {
  sim::Simulation simulation;
  MessageBus bus(simulation, reliable_bus(0.01), 1);
  int handled = 0;
  const auto scheduler =
      bus.register_endpoint("scheduler", [&](const Message&) { ++handled; });

  bus.set_endpoint_up(scheduler, false);
  // Bring the endpoint back after a few retransmission windows.
  simulation.schedule_at(SimTime::seconds(2.0),
                         [&] { bus.set_endpoint_up(scheduler, true); });
  Message m;
  m.type = MessageType::ReportStat;
  m.to = scheduler;
  bus.send(m);
  simulation.run();

  EXPECT_EQ(handled, 1);
  EXPECT_GT(bus.stats().dropped_endpoint_down, 0u);
  EXPECT_GT(bus.stats().retransmissions, 0u);
  EXPECT_EQ(bus.in_flight(), 0u);
}

// ----------------------------------------------------- cluster crash paths --

TEST(ClusterFaultTest, CrashedNodeJobIsRequeuedAndExperimentCompletes) {
  const auto trace = linear_trace(4, 8);
  auto options = base_options(2);
  NodeCrashEvent crash;
  crash.machine = 0;
  crash.at = SimTime::seconds(150);  // mid-epoch 3 of whoever runs on node 0
  options.fault_plan.crashes.push_back(crash);

  obs::RecordingSink sink;
  options.obs.sink = &sink;

  core::DefaultPolicy policy;
  sim::Simulation simulation;
  HyperDriveCluster cluster(trace, options, simulation);
  const auto result = run_to_end(simulation, cluster, policy);

  EXPECT_EQ(result.recovery.node_crashes, 1u);
  EXPECT_EQ(result.recovery.node_restarts, 0u);
  EXPECT_GE(result.recovery.jobs_requeued, 1u);
  EXPECT_GT(result.recovery.epochs_lost, 0u);  // no snapshot existed yet
  EXPECT_EQ(cluster.fault_stats().node_crashes, 1u);
  // Permanent capacity loss: after node 0's crash the survivor machine hosts
  // every start and resume.
  bool crashed = false;
  std::size_t placed_after_crash = 0;
  for (const obs::TraceEvent& event : sink.events) {
    crashed = crashed || event.kind == obs::EventKind::NodeCrash;
    if (crashed && (event.kind == obs::EventKind::JobStart ||
                    event.kind == obs::EventKind::JobResume)) {
      EXPECT_EQ(event.machine, 1) << "t=" << event.time.to_seconds();
      ++placed_after_crash;
    }
  }
  EXPECT_GE(placed_after_crash, 1u);
  for (const auto& job : result.job_stats) {
    EXPECT_EQ(job.final_status, JobStatus::Completed) << "job " << job.job_id;
    EXPECT_EQ(job.epochs_completed, 8u) << "job " << job.job_id;
  }
}

TEST(ClusterFaultTest, RestartRestoresCapacity) {
  const auto trace = linear_trace(6, 10);
  auto options = base_options(3);
  NodeCrashEvent crash;
  crash.machine = 1;
  crash.at = SimTime::seconds(200);
  crash.restart_after = SimTime::seconds(120);
  options.fault_plan.crashes.push_back(crash);

  obs::RecordingSink sink;
  options.obs.sink = &sink;

  core::DefaultPolicy policy;
  const auto result = run_cluster_experiment(trace, policy, options);

  EXPECT_EQ(result.recovery.node_crashes, 1u);
  EXPECT_EQ(result.recovery.node_restarts, 1u);
  // Back to full membership: node 1 hosts a start or resume again after its
  // restart.
  bool restarted = false;
  bool placed_after_restart = false;
  for (const obs::TraceEvent& event : sink.events) {
    if (event.machine != 1) continue;
    restarted = restarted || event.kind == obs::EventKind::NodeRestart;
    placed_after_restart = placed_after_restart ||
                           (restarted && (event.kind == obs::EventKind::JobStart ||
                                          event.kind == obs::EventKind::JobResume));
  }
  EXPECT_TRUE(placed_after_restart);
  for (const auto& job : result.job_stats) {
    EXPECT_EQ(job.final_status, JobStatus::Completed) << "job " << job.job_id;
  }
}

TEST(ClusterFaultTest, PopCapacityChangeUpcallFires) {
  const auto trace = linear_trace(4, 12, /*target=*/0.99);
  auto options = base_options(2);
  NodeCrashEvent crash;
  crash.machine = 0;
  crash.at = SimTime::seconds(200);
  crash.restart_after = SimTime::seconds(200);
  options.fault_plan.crashes.push_back(crash);

  core::PopConfig config;
  config.tmax = SimTime::hours(96);
  config.predictor = core::make_default_predictor(3);
  core::PopPolicy policy(std::move(config));
  const auto result = run_cluster_experiment(trace, policy, options);

  EXPECT_EQ(policy.capacity_changes(), 2u);  // crash + restart
  EXPECT_EQ(result.recovery.node_crashes, 1u);
  EXPECT_EQ(result.recovery.node_restarts, 1u);
}

TEST(ClusterFaultTest, CrashAfterSnapshotRollsBackOnlyToSnapshotEpoch) {
  // Jobs suspend at epoch 2 (=> durable snapshot at epoch 2), resume, then a
  // late crash kills one mid-flight: it must restart from epoch 2, not 0.
  const auto trace = linear_trace(2, 10);
  auto options = base_options(1);
  NodeCrashEvent crash;
  crash.machine = 0;
  crash.at = SimTime::seconds(400);
  crash.restart_after = SimTime::seconds(60);
  options.fault_plan.crashes.push_back(crash);

  SuspendOncePolicy policy;
  sim::Simulation simulation;
  HyperDriveCluster cluster(trace, options, simulation);
  const auto result = run_to_end(simulation, cluster, policy);

  EXPECT_EQ(result.recovery.node_crashes, 1u);
  EXPECT_GE(result.recovery.jobs_requeued, 1u);
  for (const auto& job : result.job_stats) {
    EXPECT_EQ(job.final_status, JobStatus::Completed) << "job " << job.job_id;
  }
  // Re-trained epochs reported duplicate stats which the AppStatDb absorbed;
  // the history still has exactly one entry per epoch.
  for (const auto& job : trace.jobs) {
    EXPECT_EQ(cluster.app_stat_db().perf_history(job.job_id).size(), 10u);
  }
}

TEST(ClusterFaultTest, SnapshotUploadFailureRollsBackAndRetrains) {
  const auto trace = linear_trace(3, 8);
  auto options = base_options(2);
  options.fault_plan.seed = 21;
  options.fault_plan.snapshot_upload_fail_prob = 1.0;  // every capture fails

  SuspendOncePolicy policy;
  const auto result = run_cluster_experiment(trace, policy, options);

  EXPECT_GT(result.recovery.snapshots_lost, 0u);
  EXPECT_GE(result.recovery.jobs_requeued, 3u);
  EXPECT_GT(result.recovery.epochs_lost, 0u);  // suspended at 2 with no durable state
  for (const auto& job : result.job_stats) {
    EXPECT_EQ(job.final_status, JobStatus::Completed) << "job " << job.job_id;
    EXPECT_EQ(job.epochs_completed, 8u);
  }
}

TEST(ClusterFaultTest, CorruptSnapshotFallsBackToHistoryReplay) {
  const auto trace = linear_trace(3, 8);
  auto options = base_options(2);
  options.fault_plan.seed = 22;
  options.fault_plan.snapshot_corrupt_prob = 1.0;  // every stored image is bad

  SuspendOncePolicy policy;
  sim::Simulation simulation;
  HyperDriveCluster cluster(trace, options, simulation);
  const auto result = run_to_end(simulation, cluster, policy);

  EXPECT_GT(result.recovery.snapshot_restore_failures, 0u);
  EXPECT_GT(cluster.fault_stats().snapshots_corrupted, 0u);
  EXPECT_GT(result.recovery.epochs_lost, 0u);  // restarted from scratch
  for (const auto& job : result.job_stats) {
    EXPECT_EQ(job.final_status, JobStatus::Completed) << "job " << job.job_id;
    EXPECT_EQ(job.epochs_completed, 8u);
  }
  for (const auto& job : trace.jobs) {
    EXPECT_EQ(cluster.app_stat_db().perf_history(job.job_id).size(), 8u);
  }
}

TEST(ClusterFaultTest, MessageDropsAreSurvivedByRetransmission) {
  const auto trace = linear_trace(4, 8, /*target=*/0.49);  // reachable at last epoch
  auto options = base_options(2);
  options.fault_plan.seed = 23;
  MessageFaultProfile faults;
  faults.drop_prob = 0.10;
  faults.duplicate_prob = 0.05;
  faults.delay_prob = 0.05;
  options.fault_plan.set_uniform_message_faults(faults);

  core::DefaultPolicy policy;
  sim::Simulation simulation;
  HyperDriveCluster cluster(trace, options, simulation);
  const auto result = run_to_end(simulation, cluster, policy);

  // Despite 10% drops the winning stat arrives and the experiment ends.
  EXPECT_TRUE(result.reached_target);
  EXPECT_GT(cluster.message_stats().retransmissions, 0u);
  EXPECT_EQ(result.recovery.stat_reports_lost, 0u);  // retries saved every one
}

TEST(ClusterFaultTest, FarFutureCrashDoesNotExtendAFinishedExperiment) {
  const auto trace = linear_trace(4, 6);
  core::DefaultPolicy p1, p2;

  // The crash plan auto-enables the ack/retransmit layer, which shifts
  // timings by ack round-trips; enable it on the baseline too so the only
  // difference between the runs is the scheduled crash itself.
  auto clean = base_options(2);
  clean.reliability.enabled = true;
  const auto baseline = run_cluster_experiment(trace, p1, clean);

  auto faulty = base_options(2);
  NodeCrashEvent crash;
  crash.machine = 0;
  crash.at = SimTime::hours(1000);  // long after all work is done
  faulty.fault_plan.crashes.push_back(crash);
  const auto result = run_cluster_experiment(trace, p2, faulty);

  EXPECT_EQ(result.recovery.node_crashes, 0u);
  EXPECT_EQ(result.total_time, baseline.total_time);
}

// ------------------------------------------------ golden-trace determinism --

FaultPlan stress_plan() {
  FaultPlan plan;
  plan.seed = 77;
  MessageFaultProfile faults;
  faults.drop_prob = 0.08;
  faults.duplicate_prob = 0.05;
  faults.delay_prob = 0.05;
  plan.set_uniform_message_faults(faults);
  plan.snapshot_upload_fail_prob = 0.2;
  plan.snapshot_corrupt_prob = 0.2;
  NodeCrashEvent crash;
  crash.machine = 1;
  crash.at = SimTime::seconds(300);
  crash.restart_after = SimTime::seconds(150);
  plan.crashes.push_back(crash);
  return plan;
}

TEST(GoldenTraceTest, SameSeedSameFaultPlanIsByteIdentical) {
  const auto trace = linear_trace(5, 10);
  auto options = base_options(2);
  options.fault_plan = stress_plan();
  options.seed = 99;

  SuspendOncePolicy p1, p2;
  obs::RecordingSink sink_a, sink_b;
  auto options_b = options;
  options.obs.sink = &sink_a;
  options_b.obs.sink = &sink_b;
  sim::Simulation a_sim, b_sim;
  HyperDriveCluster a(trace, options, a_sim), b(trace, options_b, b_sim);
  const auto ra = run_to_end(a_sim, a, p1);
  const auto rb = run_to_end(b_sim, b, p2);

  // Byte-identical event/decision timelines...
  ASSERT_FALSE(sink_a.events.empty());
  EXPECT_EQ(timeline(sink_a), timeline(sink_b));
  // ...identical final results...
  EXPECT_EQ(ra.total_time, rb.total_time);
  EXPECT_EQ(ra.total_machine_time, rb.total_machine_time);
  EXPECT_EQ(ra.best_perf, rb.best_perf);
  EXPECT_EQ(ra.suspends, rb.suspends);
  // ...and identical recovery counters.
  EXPECT_EQ(ra.recovery, rb.recovery);
  EXPECT_EQ(a.fault_stats().messages_dropped, b.fault_stats().messages_dropped);
  EXPECT_EQ(a.fault_stats().snapshots_corrupted, b.fault_stats().snapshots_corrupted);
  EXPECT_EQ(a.message_stats().retransmissions, b.message_stats().retransmissions);
  EXPECT_EQ(a.message_stats().acks_sent, b.message_stats().acks_sent);
}

TEST(GoldenTraceTest, DifferentSeedDiverges) {
  const auto trace = linear_trace(5, 10);
  auto options = base_options(2);
  options.fault_plan = stress_plan();
  obs::RecordingSink sink_a, sink_b;

  options.seed = 99;
  options.obs.sink = &sink_a;
  SuspendOncePolicy p1;
  (void)run_cluster_experiment(trace, p1, options);

  options.seed = 100;  // different run seed, same plan
  options.obs.sink = &sink_b;
  SuspendOncePolicy p2;
  (void)run_cluster_experiment(trace, p2, options);

  EXPECT_NE(timeline(sink_a), timeline(sink_b));
}

// --------------------------------------------------- acceptance: CIFAR+POP --

workload::Trace reachable_cifar_trace(std::size_t configs, std::uint64_t seed) {
  workload::CifarWorkloadModel model;
  auto trace = workload::generate_trace(model, configs, seed);
  while (!trace.target_reachable()) {
    trace = workload::generate_trace(model, configs, ++seed);
  }
  return trace;
}

core::PopPolicy cifar_pop_policy(std::uint64_t seed) {
  core::PopConfig config;
  config.tmax = SimTime::hours(96);
  config.predictor = core::make_default_predictor(seed);
  return core::PopPolicy(std::move(config));
}

TEST(FaultToleranceAcceptanceTest, CifarSweepSurvivesDropsAndMidRunCrash) {
  const auto trace = reachable_cifar_trace(40, 404);
  ClusterOptions options;
  options.machines = 4;
  options.max_experiment_time = SimTime::hours(96);
  options.seed = 404;

  // Fault-free baseline.
  auto pop_clean = cifar_pop_policy(404);
  const auto baseline = run_cluster_experiment(trace, pop_clean, options);
  ASSERT_TRUE(baseline.reached_target);

  // 5% message drop everywhere + one node crash in the thick of the sweep
  // (restarting 30 simulated minutes later).
  auto faulty = options;
  faulty.fault_plan.seed = 1;
  MessageFaultProfile faults;
  faults.drop_prob = 0.05;
  faulty.fault_plan.set_uniform_message_faults(faults);
  NodeCrashEvent crash;
  crash.machine = 2;
  crash.at = baseline.time_to_target * 0.5;
  crash.restart_after = SimTime::minutes(30);
  faulty.fault_plan.crashes.push_back(crash);

  auto pop_faulty = cifar_pop_policy(404);
  const auto result = run_cluster_experiment(trace, pop_faulty, faulty);

  // Still reaches the paper's accuracy target: no hung jobs, no histories
  // lost forever.
  EXPECT_TRUE(result.reached_target);
  EXPECT_GE(result.best_perf, trace.target_performance);
  EXPECT_EQ(result.recovery.node_crashes, 1u);

  // Bounded, reported degradation versus the fault-free run.
  const double clean_s = baseline.time_to_target.to_seconds();
  const double faulty_s = result.time_to_target.to_seconds();
  RecordProperty("time_to_target_clean_s", static_cast<int>(clean_s));
  RecordProperty("time_to_target_faulty_s", static_cast<int>(faulty_s));
  EXPECT_LT(faulty_s, clean_s * 2.0 + 3600.0)
      << "faults degraded time-to-target unboundedly: " << clean_s << "s -> " << faulty_s
      << "s";

  // Replayability of the acceptance scenario itself.
  auto pop_again = cifar_pop_policy(404);
  const auto again = run_cluster_experiment(trace, pop_again, faulty);
  EXPECT_EQ(again.time_to_target, result.time_to_target);
  EXPECT_EQ(again.recovery, result.recovery);
  EXPECT_EQ(again.best_perf, result.best_perf);
}

}  // namespace
}  // namespace hyperdrive::cluster
