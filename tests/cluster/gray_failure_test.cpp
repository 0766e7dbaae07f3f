// The gray-failure (fail-slow) battery. Covers, in order:
//   * FaultInjector gray queries: slowdown windows (incl. flapping duty
//     cycles), hang-stall geometry, and RNG-neutrality of all gray queries;
//   * HealthMonitor: the EWMA speed score, strike counting, the
//     Suspect/Quarantined/Probation state machine, watchdog escalation;
//   * HyperDriveCluster integration: straggler migration off quarantined
//     nodes, hung-epoch detection via the progress deadline, silent-node
//     quarantine via missed heartbeats, probation reinstatement;
//   * golden-trace determinism over a plan with slowdown + hang + quarantine
//     events (byte-identical event logs);
//   * the exploration-invariance property: slowdown-only faults change wall
//     clock, never the set of configurations POP explores or the final best
//     accuracy (>= 30 seeds);
//   * the straggler acceptance scenario: 25% of nodes at 4x slowdown,
//     mitigation recovers most of the time-to-target gap and eliminates
//     wrong kills.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/health_monitor.hpp"
#include "core/experiment_runner.hpp"
#include "core/policies/default_policy.hpp"
#include "core/policies/pop_policy.hpp"
#include "obs/sink.hpp"
#include "support/single_run.hpp"
#include "support/timeline.hpp"

namespace hyperdrive::cluster {
namespace {

using core::JobStatus;
using obs::EventKind;
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

/// Saturating-exponential curves perf(e) = amp * (1 - exp(-e / rate)), one
/// (amp, rate) pair per job — lets a test place target-reaching and hopeless
/// configurations exactly where it wants them.
workload::Trace shaped_trace(const std::vector<std::pair<double, double>>& shapes,
                             std::size_t epochs, double target, std::size_t boundary) {
  workload::Trace trace;
  trace.workload_name = "shaped";
  trace.target_performance = target;
  trace.kill_threshold = 0.0;  // neutralized: only prediction-driven kills
  trace.evaluation_boundary = boundary;
  trace.max_epochs = epochs;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    workload::TraceJob job;
    job.job_id = i + 1;
    job.curve.epoch_duration = SimTime::seconds(60);
    for (std::size_t e = 1; e <= epochs; ++e) {
      job.curve.perf.push_back(shapes[i].first *
                               (1.0 - std::exp(-static_cast<double>(e) / shapes[i].second)));
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

NodeSlowdownEvent slowdown(MachineId machine, double factor,
                           SimTime from = SimTime::zero(),
                           SimTime until = SimTime::infinity()) {
  NodeSlowdownEvent event;
  event.machine = machine;
  event.factor = factor;
  event.from = from;
  event.until = until;
  return event;
}

// ------------------------------------------------- FaultInjector gray queries

TEST(GrayInjectorTest, SlowdownWindowsMultiplyPerMachineAndTime) {
  FaultPlan plan;
  plan.slowdowns.push_back(slowdown(0, 2.0, SimTime::seconds(100), SimTime::seconds(200)));
  plan.slowdowns.push_back(slowdown(0, 3.0, SimTime::seconds(150), SimTime::seconds(250)));
  plan.slowdowns.push_back(slowdown(1, 5.0));
  const FaultInjector injector(plan, 1);

  EXPECT_DOUBLE_EQ(injector.slowdown_factor(0, SimTime::seconds(50)), 1.0);
  EXPECT_DOUBLE_EQ(injector.slowdown_factor(0, SimTime::seconds(120)), 2.0);
  EXPECT_DOUBLE_EQ(injector.slowdown_factor(0, SimTime::seconds(160)), 6.0);  // overlap
  EXPECT_DOUBLE_EQ(injector.slowdown_factor(0, SimTime::seconds(200)), 3.0);  // [from,until)
  EXPECT_DOUBLE_EQ(injector.slowdown_factor(0, SimTime::seconds(250)), 1.0);
  EXPECT_DOUBLE_EQ(injector.slowdown_factor(1, SimTime::seconds(1e6)), 5.0);  // unbounded
  EXPECT_DOUBLE_EQ(injector.slowdown_factor(2, SimTime::seconds(160)), 1.0);
}

TEST(GrayInjectorTest, FlappingSlowdownFollowsItsDutyCycle) {
  FaultPlan plan;
  auto flap = slowdown(0, 4.0);
  flap.period = SimTime::seconds(100);
  flap.duty = 0.25;  // slow for the first 25 s of every 100 s
  plan.slowdowns.push_back(flap);
  const FaultInjector injector(plan, 1);

  EXPECT_DOUBLE_EQ(injector.slowdown_factor(0, SimTime::seconds(10)), 4.0);
  EXPECT_DOUBLE_EQ(injector.slowdown_factor(0, SimTime::seconds(24.9)), 4.0);
  EXPECT_DOUBLE_EQ(injector.slowdown_factor(0, SimTime::seconds(25)), 1.0);
  EXPECT_DOUBLE_EQ(injector.slowdown_factor(0, SimTime::seconds(99)), 1.0);
  EXPECT_DOUBLE_EQ(injector.slowdown_factor(0, SimTime::seconds(110)), 4.0);  // next period
}

TEST(GrayInjectorTest, HangStallGeometry) {
  FaultPlan plan;
  HungJobEvent hang;
  hang.machine = 0;
  hang.at = SimTime::seconds(100);
  hang.clear_after = SimTime::seconds(50);  // hung during [100, 150)
  plan.hangs.push_back(hang);
  const FaultInjector injector(plan, 1);

  // Epoch entirely before / after the window: no stall.
  EXPECT_EQ(injector.hang_stall(0, SimTime::zero(), SimTime::seconds(50)), SimTime::zero());
  EXPECT_EQ(injector.hang_stall(0, SimTime::seconds(160), SimTime::seconds(10)),
            SimTime::zero());
  // Epoch [80, 120) overlaps: 20 s of progress, frozen until 150, then the
  // remaining 20 s -> completes at 170 instead of 120.
  EXPECT_EQ(injector.hang_stall(0, SimTime::seconds(80), SimTime::seconds(40)),
            SimTime::seconds(50));
  // Epoch starting inside the window waits for it to clear.
  EXPECT_EQ(injector.hang_stall(0, SimTime::seconds(120), SimTime::seconds(30)),
            SimTime::seconds(30));
  // Other machines are untouched.
  EXPECT_EQ(injector.hang_stall(1, SimTime::seconds(80), SimTime::seconds(40)),
            SimTime::zero());

  // An unbounded window swallows the epoch forever.
  HungJobEvent dead;
  dead.machine = 0;
  dead.at = SimTime::seconds(500);
  FaultPlan fatal;
  fatal.hangs.push_back(dead);
  const FaultInjector forever(fatal, 1);
  EXPECT_EQ(forever.hang_stall(0, SimTime::seconds(490), SimTime::seconds(20)),
            SimTime::infinity());
  EXPECT_TRUE(forever.is_hung(0, SimTime::seconds(501)));
  EXPECT_FALSE(forever.is_hung(0, SimTime::seconds(499)));
}

TEST(GrayInjectorTest, GrayQueriesConsumeNoRandomness) {
  // Adding slowdowns/hangs to a plan must not perturb the seeded message
  // fault stream: gray queries are pure functions of (plan, machine, time).
  FaultPlan plain;
  plain.seed = 5;
  MessageFaultProfile faults;
  faults.drop_prob = 0.5;
  plain.set_uniform_message_faults(faults);
  FaultPlan gray = plain;
  gray.slowdowns.push_back(slowdown(0, 4.0));
  HungJobEvent hang;
  hang.machine = 1;
  hang.at = SimTime::seconds(100);
  gray.hangs.push_back(hang);

  FaultInjector a(plain, 1), b(gray, 1);
  for (int i = 0; i < 100; ++i) {
    (void)b.slowdown_factor(0, SimTime::seconds(i));
    (void)b.is_hung(1, SimTime::seconds(i));
    (void)b.hang_stall(1, SimTime::seconds(i), SimTime::seconds(30));
    EXPECT_EQ(a.should_drop(MessageType::ReportStat), b.should_drop(MessageType::ReportStat))
        << "draw " << i;
  }
}

// ------------------------------------------------------------- HealthMonitor

HealthOptions fast_health() {
  HealthOptions options;
  options.enabled = true;
  options.heartbeat_interval = SimTime::seconds(10);
  options.watchdog_intervals = 3;  // suspect after 30 s, quarantine after 60 s
  return options;
}

TEST(HealthMonitorTest, ConsecutiveSlowEpochsQuarantine) {
  HealthMonitor monitor(2, fast_health());
  const auto expected = SimTime::seconds(60), observed = SimTime::seconds(240);
  SimTime now = SimTime::zero();
  // EWMA from 1.0 with alpha 0.4 and obs 0.25: 0.7, 0.52, 0.41, 0.35 — the
  // last three are below kSlowHostSpeed 0.6, so the third strike lands on the
  // fourth epoch.
  for (int e = 1; e <= 3; ++e) {
    now = now + observed;
    EXPECT_EQ(monitor.note_epoch(0, expected, observed, now),
              HealthMonitor::Transition::None)
        << "epoch " << e;
  }
  now = now + observed;
  EXPECT_EQ(monitor.note_epoch(0, expected, observed, now),
            HealthMonitor::Transition::Quarantine);
  EXPECT_EQ(monitor.health(0), NodeHealth::Quarantined);
  EXPECT_LT(monitor.speed_score(0), 0.6);
  EXPECT_TRUE(monitor.degraded(0));
  EXPECT_EQ(monitor.stats().quarantines, 1u);
  EXPECT_GE(monitor.stats().slow_strikes, 3u);
  // The other machine is untouched and optimistic.
  EXPECT_EQ(monitor.health(1), NodeHealth::Healthy);
  EXPECT_DOUBLE_EQ(monitor.speed_score(1), 1.0);
}

TEST(HealthMonitorTest, NominalEpochsResetTheStrikeCounter) {
  HealthMonitor monitor(1, fast_health());
  const auto expected = SimTime::seconds(60);
  SimTime now = SimTime::zero();
  const auto slow = SimTime::seconds(240), nominal = SimTime::seconds(60);
  // Two strikes...
  (void)monitor.note_epoch(0, expected, slow, now = now + slow);
  (void)monitor.note_epoch(0, expected, slow, now = now + slow);
  (void)monitor.note_epoch(0, expected, slow, now = now + slow);
  // ...then recovery pulls the score back over the threshold, resetting them.
  (void)monitor.note_epoch(0, expected, nominal, now = now + nominal);
  EXPECT_GE(monitor.speed_score(0), 0.6);
  // Two more slow epochs are strikes 1 and 2 again — no quarantine.
  EXPECT_EQ(monitor.note_epoch(0, expected, slow, now = now + slow),
            HealthMonitor::Transition::None);
  EXPECT_EQ(monitor.note_epoch(0, expected, slow, now = now + slow),
            HealthMonitor::Transition::None);
  EXPECT_EQ(monitor.health(0), NodeHealth::Healthy);
}

TEST(HealthMonitorTest, ProbationJudgesRawSpeedAndReinstates) {
  auto options = fast_health();
  options.reinstate_epochs = 2;
  HealthMonitor monitor(1, options);
  monitor.force_quarantine(0);
  EXPECT_EQ(monitor.health(0), NodeHealth::Quarantined);
  monitor.begin_probation(0, SimTime::seconds(100));
  EXPECT_EQ(monitor.health(0), NodeHealth::Probation);
  EXPECT_EQ(monitor.stats().probations, 1u);

  // The EWMA score still carries the pre-quarantine slowness, so probation
  // must judge raw per-epoch speed: two nominal epochs reinstate.
  const auto expected = SimTime::seconds(60), nominal = SimTime::seconds(62);
  EXPECT_EQ(monitor.note_epoch(0, expected, nominal, SimTime::seconds(200)),
            HealthMonitor::Transition::None);
  EXPECT_EQ(monitor.note_epoch(0, expected, nominal, SimTime::seconds(300)),
            HealthMonitor::Transition::Reinstate);
  EXPECT_EQ(monitor.health(0), NodeHealth::Healthy);
  EXPECT_DOUBLE_EQ(monitor.speed_score(0), 1.0);  // reset on reinstatement
  EXPECT_EQ(monitor.stats().reinstatements, 1u);
}

TEST(HealthMonitorTest, SlowProbationEpochRequarantines) {
  HealthMonitor monitor(1, fast_health());
  monitor.force_quarantine(0);
  monitor.begin_probation(0, SimTime::seconds(100));
  EXPECT_EQ(monitor.note_epoch(0, SimTime::seconds(60), SimTime::seconds(240),
                               SimTime::seconds(340)),
            HealthMonitor::Transition::Quarantine);
  EXPECT_EQ(monitor.health(0), NodeHealth::Quarantined);
  EXPECT_EQ(monitor.stats().quarantines, 2u);  // force + probation failure
}

TEST(HealthMonitorTest, WatchdogEscalatesSilenceToQuarantine) {
  HealthMonitor monitor(2, fast_health());
  Heartbeat beat;
  beat.machine = 0;
  beat.sent_at = SimTime::seconds(5);
  monitor.note_heartbeat(beat, SimTime::seconds(5));
  Heartbeat other = beat;
  other.machine = 1;
  monitor.note_heartbeat(other, SimTime::seconds(5));

  // Within the suspect window: quiet.
  auto report = monitor.watchdog_scan(SimTime::seconds(20));
  EXPECT_TRUE(report.newly_suspect.empty());
  EXPECT_TRUE(report.to_quarantine.empty());

  // Machine 1 keeps beating; machine 0 goes silent.
  other.sent_at = SimTime::seconds(40);
  monitor.note_heartbeat(other, SimTime::seconds(40));
  report = monitor.watchdog_scan(SimTime::seconds(40));
  ASSERT_EQ(report.newly_suspect, std::vector<MachineId>{0});
  EXPECT_EQ(monitor.health(0), NodeHealth::Suspect);
  EXPECT_EQ(monitor.health(1), NodeHealth::Healthy);
  EXPECT_EQ(monitor.stats().suspects_declared, 1u);

  // A resumed beat clears the suspicion...
  beat.sent_at = SimTime::seconds(45);
  monitor.note_heartbeat(beat, SimTime::seconds(45));
  EXPECT_EQ(monitor.health(0), NodeHealth::Healthy);
  EXPECT_EQ(monitor.stats().suspects_recovered, 1u);

  // ...but silence past twice the suspect window escalates to quarantine.
  other.sent_at = SimTime::seconds(75);  // keep machine 1 above suspicion
  monitor.note_heartbeat(other, SimTime::seconds(75));
  report = monitor.watchdog_scan(SimTime::seconds(80));  // 35 s silent
  ASSERT_EQ(report.newly_suspect, std::vector<MachineId>{0});
  report = monitor.watchdog_scan(SimTime::seconds(110));  // 65 s silent
  ASSERT_EQ(report.to_quarantine, std::vector<MachineId>{0});
  monitor.force_quarantine(0);
  EXPECT_EQ(monitor.health(0), NodeHealth::Quarantined);

  // Quarantined and excluded machines are outside watchdog scrutiny.
  monitor.set_excluded(1, true, SimTime::seconds(110));
  report = monitor.watchdog_scan(SimTime::seconds(500));
  EXPECT_TRUE(report.newly_suspect.empty());
  EXPECT_TRUE(report.to_quarantine.empty());
  // Un-excluding resets the liveness clock: not instantly suspect.
  monitor.set_excluded(1, false, SimTime::seconds(500));
  report = monitor.watchdog_scan(SimTime::seconds(510));
  EXPECT_TRUE(report.newly_suspect.empty());
}

// ------------------------------------------------------ cluster integration

TEST(GrayClusterTest, SlowdownWithoutHealthLayerOnlyStretchesWallClock) {
  const auto trace = linear_trace(2, 6);
  core::DefaultPolicy p1, p2;

  // A gray plan auto-enables the reliability layer; enable it on the clean
  // baseline too so the only difference is the slowdown itself.
  auto clean = base_options(2);
  clean.reliability.enabled = true;
  const auto baseline = run_cluster_experiment(trace, p1, clean);

  auto slowed = base_options(2);
  slowed.fault_plan.slowdowns.push_back(slowdown(0, 3.0));
  sim::Simulation simulation;
  HyperDriveCluster cluster(trace, slowed, simulation);
  const auto result = run_to_end(simulation, cluster, p2);

  EXPECT_GT(result.total_time, baseline.total_time);
  EXPECT_EQ(cluster.fault_stats().epochs_slowed, 6u);  // machine 0's job
  // No detection layer => no mitigation, but also no corruption: every job
  // still completes every epoch.
  EXPECT_EQ(result.recovery.jobs_migrated, 0u);
  EXPECT_EQ(result.recovery.nodes_quarantined, 0u);
  for (const auto& job : result.job_stats) {
    EXPECT_EQ(job.final_status, JobStatus::Completed);
    EXPECT_EQ(job.epochs_completed, 6u);
  }
}

TEST(GrayClusterTest, PersistentlySlowNodeIsQuarantinedAndItsJobMigrates) {
  const auto trace = linear_trace(4, 12);
  auto options = base_options(2);
  options.fault_plan.slowdowns.push_back(slowdown(0, 4.0));
  options.health = fast_health();
  options.health.probation_after = SimTime::hours(10);  // stay out for this run
  obs::RecordingSink sink;
  options.obs.sink = &sink;

  core::DefaultPolicy policy;
  sim::Simulation simulation;
  HyperDriveCluster cluster(trace, options, simulation);
  const auto result = run_to_end(simulation, cluster, policy);

  EXPECT_GE(result.recovery.jobs_migrated, 1u);
  EXPECT_EQ(result.recovery.nodes_quarantined, 1u);
  EXPECT_GE(cluster.health_monitor().stats().quarantines, 1u);
  EXPECT_TRUE(has_event(sink, {.kind = EventKind::NodeQuarantine, .machine = 0}));
  EXPECT_TRUE(has_event(sink, {.kind = EventKind::JobMigrate, .machine = 0, .detail = "slow"}));
  // The migrated job lost no training: clean suspend, resume elsewhere.
  for (const auto& job : result.job_stats) {
    EXPECT_EQ(job.final_status, JobStatus::Completed) << "job " << job.job_id;
    EXPECT_EQ(job.epochs_completed, 12u) << "job " << job.job_id;
  }
  EXPECT_EQ(result.recovery.epochs_lost, 0u);
}

TEST(GrayClusterTest, HungEpochTripsProgressDeadlineAndJobMigrates) {
  const auto trace = linear_trace(2, 8);
  auto options = base_options(2);
  HungJobEvent hang;  // machine 0 wedges forever at t = 150 s (mid epoch 3)
  hang.machine = 0;
  hang.at = SimTime::seconds(150);
  options.fault_plan.hangs.push_back(hang);
  options.health = fast_health();
  // Slow heartbeat cadence so the progress deadline (6 x expected epoch)
  // fires before the missed-heartbeat watchdog would.
  options.health.heartbeat_interval = SimTime::seconds(120);
  obs::RecordingSink sink;
  options.obs.sink = &sink;

  core::DefaultPolicy policy;
  sim::Simulation simulation;
  HyperDriveCluster cluster(trace, options, simulation);
  const auto result = run_to_end(simulation, cluster, policy);

  EXPECT_EQ(result.recovery.hung_jobs_detected, 1u);
  EXPECT_EQ(result.recovery.nodes_quarantined, 1u);
  EXPECT_GE(result.recovery.jobs_migrated, 1u);
  EXPECT_GE(result.recovery.jobs_requeued, 1u);
  EXPECT_GT(result.recovery.epochs_lost, 0u);  // rollback: no snapshot existed
  EXPECT_EQ(cluster.fault_stats().epochs_hung, 1u);
  EXPECT_TRUE(has_event(sink, {.kind = EventKind::HangDetected, .machine = 0}));
  EXPECT_TRUE(has_event(sink, {.kind = EventKind::JobMigrate, .machine = 0, .detail = "hung"}));
  // The survivor machine finishes everything, histories intact.
  for (const auto& job : result.job_stats) {
    EXPECT_EQ(job.final_status, JobStatus::Completed) << "job " << job.job_id;
    EXPECT_EQ(job.epochs_completed, 8u) << "job " << job.job_id;
  }
  for (const auto& job : trace.jobs) {
    EXPECT_EQ(cluster.app_stat_db().perf_history(job.job_id).size(), 8u);
  }
}

TEST(GrayClusterTest, SilentIdleNodeIsQuarantinedByTheWatchdog) {
  // One job on machine 0; machine 1 sits idle and goes silent (hung) at
  // t = 50 s. Only the heartbeat watchdog can notice — there is no epoch
  // traffic from an idle machine.
  const auto trace = linear_trace(1, 20);
  auto options = base_options(2);
  HungJobEvent hang;
  hang.machine = 1;
  hang.at = SimTime::seconds(50);
  options.fault_plan.hangs.push_back(hang);
  options.health = fast_health();
  options.health.heartbeat_interval = SimTime::seconds(5);
  options.health.watchdog_intervals = 2;  // suspect at 10 s, quarantine at 20 s
  options.health.probation_after = SimTime::hours(10);
  obs::RecordingSink sink;
  options.obs.sink = &sink;

  core::DefaultPolicy policy;
  sim::Simulation simulation;
  HyperDriveCluster cluster(trace, options, simulation);
  const auto result = run_to_end(simulation, cluster, policy);

  EXPECT_EQ(result.recovery.nodes_quarantined, 1u);
  EXPECT_EQ(result.recovery.jobs_migrated, 0u);  // nothing was running there
  EXPECT_EQ(result.recovery.hung_jobs_detected, 0u);
  EXPECT_TRUE(has_event(sink, {.kind = EventKind::NodeSuspect, .machine = 1}));
  EXPECT_TRUE(
      has_event(sink, {.kind = EventKind::NodeQuarantine, .machine = 1, .detail = "silent"}));
  EXPECT_EQ(cluster.health_monitor().health(1), NodeHealth::Quarantined);
  ASSERT_EQ(result.job_stats.size(), 1u);
  EXPECT_EQ(result.job_stats[0].final_status, JobStatus::Completed);
  EXPECT_EQ(result.job_stats[0].epochs_completed, 20u);
}

TEST(GrayClusterTest, RecoveredNodeServesProbationAndIsReinstated) {
  // Machine 0 is 4x slow only during [0, 2000 s): it gets quarantined, fails
  // probation while the window is still open, and is reinstated once its
  // probation epochs run at nominal speed again.
  const auto trace = linear_trace(6, 30);
  auto options = base_options(2);
  options.fault_plan.slowdowns.push_back(
      slowdown(0, 4.0, SimTime::zero(), SimTime::seconds(2000)));
  options.health = fast_health();
  options.health.probation_after = SimTime::seconds(120);
  options.health.reinstate_epochs = 2;
  obs::RecordingSink sink;
  options.obs.sink = &sink;

  core::DefaultPolicy policy;
  sim::Simulation simulation;
  HyperDriveCluster cluster(trace, options, simulation);
  const auto result = run_to_end(simulation, cluster, policy);

  EXPECT_GE(result.recovery.nodes_quarantined, 2u);  // initial + failed probation
  EXPECT_EQ(result.recovery.nodes_reinstated, 1u);
  EXPECT_EQ(cluster.health_monitor().stats().reinstatements, 1u);
  EXPECT_TRUE(has_event(sink, {.kind = EventKind::NodeProbation, .machine = 0}));
  EXPECT_TRUE(has_event(sink, {.kind = EventKind::NodeReinstate, .machine = 0}));
  EXPECT_EQ(cluster.health_monitor().health(0), NodeHealth::Healthy);
  for (const auto& job : result.job_stats) {
    EXPECT_EQ(job.final_status, JobStatus::Completed) << "job " << job.job_id;
    EXPECT_EQ(job.epochs_completed, 30u) << "job " << job.job_id;
  }
}

// ------------------------------------------- golden-trace determinism (gray)

FaultPlan gray_stress_plan() {
  FaultPlan plan;
  plan.seed = 77;
  MessageFaultProfile faults;
  faults.drop_prob = 0.05;
  faults.duplicate_prob = 0.03;
  plan.set_uniform_message_faults(faults);
  plan.slowdowns.push_back(slowdown(0, 4.0));  // persistent straggler
  auto flap = slowdown(1, 2.0);                // flapping straggler
  flap.period = SimTime::seconds(240);
  flap.duty = 0.5;
  plan.slowdowns.push_back(flap);
  HungJobEvent hang;  // machine 2 wedges forever mid-run
  hang.machine = 2;
  hang.at = SimTime::seconds(400);
  plan.hangs.push_back(hang);
  return plan;
}

ClusterOptions gray_golden_options() {
  auto options = base_options(3);
  options.fault_plan = gray_stress_plan();
  options.health = fast_health();
  options.health.probation_after = SimTime::seconds(300);
  options.seed = 99;
  return options;
}

TEST(GoldenGrayTraceTest, SlowdownHangAndQuarantineEventsAreByteIdentical) {
  const auto trace = linear_trace(6, 12);
  auto options = gray_golden_options();
  obs::RecordingSink sink_a, sink_b;
  auto options_b = options;
  options.obs.sink = &sink_a;
  options_b.obs.sink = &sink_b;

  core::DefaultPolicy p1, p2;
  sim::Simulation a_sim, b_sim;
  HyperDriveCluster a(trace, options, a_sim), b(trace, options_b, b_sim);
  const auto ra = run_to_end(a_sim, a, p1);
  const auto rb = run_to_end(b_sim, b, p2);

  // The scenario really exercises the gray machinery...
  EXPECT_GE(ra.recovery.nodes_quarantined, 2u);  // slow machine 0 + hung machine 2
  EXPECT_GE(ra.recovery.jobs_migrated, 1u);
  EXPECT_TRUE(has_event(sink_a, {.kind = EventKind::NodeQuarantine}));
  EXPECT_TRUE(has_event(sink_a, {.kind = EventKind::JobMigrate}));
  // ...and replays byte-for-byte.
  ASSERT_FALSE(sink_a.events.empty());
  EXPECT_EQ(timeline(sink_a), timeline(sink_b));
  EXPECT_EQ(ra.total_time, rb.total_time);
  EXPECT_EQ(ra.total_machine_time, rb.total_machine_time);
  EXPECT_EQ(ra.best_perf, rb.best_perf);
  EXPECT_EQ(ra.recovery, rb.recovery);
  EXPECT_EQ(a.fault_stats().epochs_slowed, b.fault_stats().epochs_slowed);
  EXPECT_EQ(a.fault_stats().epochs_hung, b.fault_stats().epochs_hung);
  EXPECT_EQ(a.health_monitor().stats().heartbeats_received,
            b.health_monitor().stats().heartbeats_received);
  EXPECT_EQ(a.health_monitor().stats().quarantines,
            b.health_monitor().stats().quarantines);
}

TEST(GoldenGrayTraceTest, DifferentSeedDiverges) {
  const auto trace = linear_trace(6, 12);
  auto options = gray_golden_options();
  obs::RecordingSink sink_a, sink_b;

  core::DefaultPolicy p1, p2;
  options.obs.sink = &sink_a;
  (void)run_cluster_experiment(trace, p1, options);
  options.seed = 100;
  options.obs.sink = &sink_b;
  (void)run_cluster_experiment(trace, p2, options);
  EXPECT_NE(timeline(sink_a), timeline(sink_b));
}

// ------------------------------------- exploration invariance under slowdown

struct ExplorationOutcome {
  std::set<core::JobId> completed;
  std::set<core::JobId> terminated;
  double best_perf = 0.0;
  util::SimTime total_time = util::SimTime::zero();
};

ExplorationOutcome classify_outcome(const core::ExperimentResult& result) {
  ExplorationOutcome outcome;
  for (const auto& job : result.job_stats) {
    if (job.final_status == JobStatus::Completed) outcome.completed.insert(job.job_id);
    if (job.final_status == JobStatus::Terminated) outcome.terminated.insert(job.job_id);
  }
  outcome.best_perf = result.best_perf;
  outcome.total_time = result.total_time;
  return outcome;
}

TEST(GrayExplorationInvarianceTest, SlowdownOnlyFaultsNeverChangeWhatPopExplores) {
  // The core "gray failures must not corrupt exploration" invariant: with
  // fail-slow faults only (no crashes, no message loss) and an unconstrained
  // budget, the set of configurations POP completes/terminates and the final
  // best accuracy must equal the fault-free run's — only wall clock may
  // differ. Run-all mode plus a huge Tmax make POP's per-job decisions pure
  // functions of the (timing-independent) learning curves, which is exactly
  // what the mitigation layer must preserve.
  const auto trace = shaped_trace(
      {
          {0.92, 4.0},  // reaches the 0.85 target around epoch 11
          {0.90, 4.0},
          {0.91, 4.0},
          {0.50, 5.0},  // hopeless plateaus
          {0.48, 5.0},
          {0.46, 5.0},
          {0.44, 5.0},
          {0.42, 5.0},
      },
      /*epochs=*/18, /*target=*/0.85, /*boundary=*/3);

  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    ClusterOptions options;
    options.machines = 2;
    options.stop_on_target = false;  // run-all: explore the whole set
    options.seed = seed;
    options.epoch_jitter_sigma = 0.05;
    options.health = fast_health();
    options.reliability.enabled = true;  // match the gray arm's auto-enable

    core::PopConfig config;
    config.tmax = SimTime::hours(1e6);  // unconstrained: no budget truncation
    config.predictor = core::make_default_predictor(seed);
    core::PopPolicy clean_pop(config);
    const auto clean = run_cluster_experiment(trace, clean_pop, options);

    auto gray = options;
    gray.fault_plan.slowdowns.push_back(slowdown(0, 4.0));
    auto flap = slowdown(1, 2.0);
    flap.period = SimTime::seconds(300);
    flap.duty = 0.5;
    gray.fault_plan.slowdowns.push_back(flap);

    core::PopConfig config2 = config;
    config2.predictor = core::make_default_predictor(seed);
    core::PopPolicy gray_pop(config2);
    sim::Simulation simulation;
    HyperDriveCluster cluster(trace, gray, simulation);
    const auto faulty = run_to_end(simulation, cluster, gray_pop);

    const auto a = classify_outcome(clean);
    const auto b = classify_outcome(faulty);
    EXPECT_EQ(a.completed, b.completed) << "seed " << seed;
    EXPECT_EQ(a.terminated, b.terminated) << "seed " << seed;
    EXPECT_DOUBLE_EQ(a.best_perf, b.best_perf) << "seed " << seed;
    // Wall clock is the one thing that MAY differ — and must, here: half the
    // cluster is 4x slow.
    EXPECT_GT(b.total_time, a.total_time) << "seed " << seed;
    EXPECT_GT(cluster.fault_stats().epochs_slowed, 0u) << "seed " << seed;
  }
}

// ----------------------------------------------- straggler acceptance (§7)

TEST(StragglerAcceptanceTest, MitigationRecoversTimeToTargetAndEliminatesWrongKills) {
  // 25% of an 8-machine cluster (machines 0 and 1) runs at 4x for the whole
  // experiment. Both target-reaching configurations land on the slow
  // machines. Without mitigation, POP wrong-kills the slow-ramp winner
  // (its inflated epoch time pushes the target outside the budget) and the
  // fast-ramp winner crawls to the target at 4x. With mitigation, both are
  // migrated to healthy machines early and the wrong kills disappear.
  std::vector<std::pair<double, double>> shapes;
  shapes.push_back({0.90, 7.0});   // job 1 (machine 0): reaches target ~epoch 21
  shapes.push_back({0.88, 10.0});  // job 2 (machine 1): reaches target ~epoch 34
  for (int i = 0; i < 12; ++i) {
    shapes.push_back({0.55 + 0.01 * i, 6.0});  // hopeless
  }
  const auto trace = shaped_trace(shapes, /*epochs=*/40, /*target=*/0.85,
                                  /*boundary=*/4);
  // Tight enough that 4x-inflated epoch times push job 2's predicted reach
  // past the budget (the wrong kill), yet roomy enough that job 1 still
  // crawls to the target in the unmitigated arm.
  const auto tmax = SimTime::seconds(5700);

  const auto fresh_policy = [&] {
    core::PopConfig config;
    config.tmax = tmax;
    config.predictor = core::make_default_predictor(11);
    // Rotation would let a slow-hosted job escape by luck; pin jobs so the
    // only way off a straggler is the mitigation under test.
    config.rotate_opportunistic = false;
    return core::PopPolicy(config);
  };
  ClusterOptions options;
  options.machines = 8;
  options.max_experiment_time = tmax;
  options.seed = 11;
  options.epoch_jitter_sigma = 0.05;
  options.reliability.enabled = true;  // level the field with the fault arms

  // Fault-free baseline.
  auto clean_policy = fresh_policy();
  const auto clean = run_cluster_experiment(trace, clean_policy, options);
  ASSERT_TRUE(clean.reached_target);

  // 25% slow nodes, mitigation OFF. Both arms record their typed event
  // stream so the wrong-kill oracle can be re-checked as a stream query.
  auto off = options;
  off.fault_plan.slowdowns.push_back(slowdown(0, 4.0));
  off.fault_plan.slowdowns.push_back(slowdown(1, 4.0));
  auto off_policy = fresh_policy();
  obs::RecordingSink off_events;
  off.obs.sink = &off_events;
  const auto unmitigated = run_cluster_experiment(trace, off_policy, off);

  // Same faults, mitigation ON.
  auto on = off;
  on.health = fast_health();
  auto on_policy = fresh_policy();
  obs::RecordingSink on_events;
  on.obs.sink = &on_events;
  const auto mitigated = run_cluster_experiment(trace, on_policy, on);

  // The gray failure corrupts the unmitigated run: the ground-truth oracle
  // records at least one target-reaching configuration killed on a slow node.
  EXPECT_GE(unmitigated.recovery.wrong_kills, 1u);
  // The same oracle expressed as an event-stream query (DESIGN.md §10):
  // typed WrongKill events mirror the ground-truth counter in both arms.
  EXPECT_EQ(off_events.count(EventKind::WrongKill),
            unmitigated.recovery.wrong_kills);
  EXPECT_EQ(on_events.count(EventKind::WrongKill),
            mitigated.recovery.wrong_kills);
  ASSERT_TRUE(unmitigated.reached_target)
      << "scenario must leave the unmitigated run a (slow) path to the target";

  // Mitigation detects the stragglers and migrates off them...
  EXPECT_GE(mitigated.recovery.nodes_quarantined, 2u);
  EXPECT_GE(mitigated.recovery.jobs_migrated, 2u);
  // ...kills no viable configuration...
  EXPECT_EQ(mitigated.recovery.wrong_kills, 0u);
  ASSERT_TRUE(mitigated.reached_target);

  // ...and claws back at least half of the time-to-target gap.
  const double t_clean = clean.time_to_target.to_seconds();
  const double t_off = unmitigated.time_to_target.to_seconds();
  const double t_on = mitigated.time_to_target.to_seconds();
  RecordProperty("ttt_clean_s", static_cast<int>(t_clean));
  RecordProperty("ttt_unmitigated_s", static_cast<int>(t_off));
  RecordProperty("ttt_mitigated_s", static_cast<int>(t_on));
  EXPECT_GT(t_off, t_clean) << "stragglers must actually hurt the OFF arm";
  EXPECT_LE(t_on - t_clean, 0.5 * (t_off - t_clean))
      << "mitigation recovered less than half the gap: clean=" << t_clean
      << "s off=" << t_off << "s on=" << t_on << "s";
}

}  // namespace
}  // namespace hyperdrive::cluster
