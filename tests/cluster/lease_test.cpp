// Lease-layer tests (multi-study arbitration, DESIGN.md §9):
//   * ResourceManager park/unpark state machine edge cases;
//   * tenant-mode HyperDriveCluster reclaim semantics — same-tick reclaim +
//     re-grant, mid-epoch reclaim of a busy slot (clean snapshot migration,
//     never a kill), and reclaiming crashed / quarantined slots (absorbed
//     sick, ungrantable until a restart or probation heals them).
#include <gtest/gtest.h>

#include <string>

#include "cluster/cluster.hpp"
#include "core/policies/default_policy.hpp"
#include "obs/sink.hpp"
#include "sim/simulation.hpp"
#include "support/timeline.hpp"
#include "workload/trace.hpp"

namespace hyperdrive::cluster {
namespace {

using core::JobStatus;
using obs::EventKind;
using util::SimTime;

workload::Trace linear_trace(std::size_t jobs, std::size_t epochs) {
  workload::Trace trace;
  trace.workload_name = "linear";
  trace.target_performance = 0.99;  // unreachable: every job runs to the end
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

/// Options for a tenant cluster whose events `sink` records.
ClusterOptions tenant_options(std::size_t machines, obs::RecordingSink& sink) {
  ClusterOptions options;
  options.machines = machines;
  options.overheads = cifar_overhead_model();
  options.epoch_jitter_sigma = 0.0;
  options.seed = 11;
  options.obs.sink = &sink;
  return options;
}

// ---------------------------------------------- ResourceManager lease layer

TEST(ResourceManagerLeaseTest, ParkAndUnparkMoveSlotsInAndOutOfMembership) {
  ResourceManager rm(4);
  EXPECT_EQ(rm.total(), 4u);
  EXPECT_EQ(rm.parked(), 0u);

  rm.park_machine(3);
  EXPECT_TRUE(rm.is_parked(3));
  EXPECT_FALSE(rm.is_online(3));
  EXPECT_EQ(rm.total(), 3u);
  EXPECT_EQ(rm.idle(), 3u);
  EXPECT_EQ(rm.parked(), 1u);
  // Parked slots are never reserved.
  for (int i = 0; i < 3; ++i) {
    const auto m = rm.reserve_idle_machine();
    ASSERT_TRUE(m.has_value());
    EXPECT_NE(*m, 3u);
  }
  EXPECT_FALSE(rm.reserve_idle_machine().has_value());

  rm.release_machine(0);
  rm.unpark_machine(3);
  EXPECT_FALSE(rm.is_parked(3));
  EXPECT_TRUE(rm.is_online(3));
  EXPECT_EQ(rm.total(), 4u);
  EXPECT_EQ(rm.idle(), 2u);
}

TEST(ResourceManagerLeaseTest, EdgeCasesThrowOrAbsorb) {
  ResourceManager rm(3);
  const auto m = rm.reserve_idle_machine();
  ASSERT_TRUE(m.has_value());
  EXPECT_THROW(rm.park_machine(*m), std::logic_error);     // busy
  EXPECT_THROW(rm.unpark_machine(1), std::logic_error);    // not parked
  EXPECT_THROW((void)rm.is_parked(7), std::out_of_range);

  // Parking an offline (crashed) machine absorbs it without touching counts
  // of the online membership.
  rm.set_offline(1);
  EXPECT_EQ(rm.total(), 2u);
  rm.park_machine(1);
  EXPECT_TRUE(rm.is_parked(1));
  EXPECT_EQ(rm.total(), 2u);
  EXPECT_EQ(rm.parked(), 1u);
  rm.park_machine(1);  // idempotent
  EXPECT_EQ(rm.parked(), 1u);
  // A lease grant re-admits it online + idle.
  rm.unpark_machine(1);
  EXPECT_TRUE(rm.is_online(1));
  EXPECT_EQ(rm.total(), 3u);
}

// ------------------------------------------------- tenant cluster reclaim

TEST(TenantLeaseTest, SameTickReclaimAndRegrant) {
  sim::Simulation sim;
  obs::RecordingSink sink;
  const auto trace = linear_trace(2, 8);
  HyperDriveCluster cluster(trace, tenant_options(4, sink), sim);
  core::DefaultPolicy policy;
  std::size_t released = 0;
  cluster.on_slot_released = [&] { ++released; };
  cluster.start(policy);
  // Jobs occupy machines 0 and 1; 2 and 3 idle online.
  EXPECT_EQ(cluster.held_slots(), 4u);

  cluster.set_lease_target(CapacityView::single(2));  // idle slots park immediately
  EXPECT_EQ(cluster.held_slots(), 2u);
  EXPECT_EQ(released, 2u);

  cluster.set_lease_target(CapacityView::single(3));  // same-tick re-grant of a just-parked slot
  EXPECT_TRUE(cluster.grant_one(0));
  EXPECT_EQ(cluster.held_slots(), 3u);
  EXPECT_FALSE(cluster.grant_one(0));  // at target
  EXPECT_TRUE(has_event(sink, {.kind = EventKind::LeasePark, .machine = 3, .detail = "reclaim"}));
  EXPECT_TRUE(has_event(sink, {.kind = EventKind::LeaseGrant, .machine = 2}));

  sim.run_until(SimTime::hours(10));
  ASSERT_TRUE(cluster.finished());
  const auto result = cluster.collect();
  EXPECT_EQ(result.jobs_started, 2u);
  EXPECT_EQ(result.terminations, 0u);
  EXPECT_EQ(result.recovery.epochs_lost, 0u);
  EXPECT_EQ(result.lease_reclaims, 2u);
  EXPECT_EQ(result.lease_grants, 1u);
  for (const auto& job : result.job_stats) {
    EXPECT_EQ(job.final_status, JobStatus::Completed);
    EXPECT_EQ(job.epochs_completed, 8u);
  }
}

TEST(TenantLeaseTest, MidEpochReclaimMigratesInsteadOfKilling) {
  sim::Simulation sim;
  obs::RecordingSink sink;
  const auto trace = linear_trace(4, 6);
  HyperDriveCluster cluster(trace, tenant_options(4, sink), sim);
  core::DefaultPolicy policy;
  cluster.start(policy);
  sim.run_until(SimTime::seconds(90));  // every job is mid epoch 2

  cluster.set_lease_target(CapacityView::single(2));
  // All four machines are busy: nothing parks synchronously; the two
  // reclaimed slots drain via clean suspend.
  EXPECT_EQ(cluster.held_slots(), 4u);
  EXPECT_TRUE(has_event(sink, {.kind = EventKind::LeaseMigrate}));

  sim.run_until(SimTime::hours(10));
  ASSERT_TRUE(cluster.finished());
  const auto result = cluster.collect();
  EXPECT_GE(result.recovery.jobs_migrated, 2u);
  EXPECT_GE(result.suspends, 2u);
  EXPECT_EQ(result.terminations, 0u);
  EXPECT_EQ(result.recovery.epochs_lost, 0u);  // migration is a clean suspend
  EXPECT_EQ(result.lease_reclaims, 2u);
  EXPECT_TRUE(has_event(sink, {.kind = EventKind::LeasePark, .machine = 3, .detail = "reclaim"}));
  for (const auto& job : result.job_stats) {
    EXPECT_EQ(job.final_status, JobStatus::Completed) << "job " << job.job_id;
    EXPECT_EQ(job.epochs_completed, 6u) << "job " << job.job_id;
  }
}

TEST(TenantLeaseTest, ReclaimAbsorbsCrashedSlotUntilRestartHealsIt) {
  sim::Simulation sim;
  obs::RecordingSink sink;
  const auto trace = linear_trace(2, 8);
  auto options = tenant_options(4, sink);
  NodeCrashEvent crash;  // machine 0 dies at 100 s, restarts at 300 s
  crash.machine = 0;
  crash.at = SimTime::seconds(100);
  crash.restart_after = SimTime::seconds(200);
  options.fault_plan.crashes.push_back(crash);
  HyperDriveCluster cluster(trace, options, sim);
  core::DefaultPolicy policy;
  cluster.start(policy);
  sim.run_until(SimTime::seconds(150));
  // Machine 0 is a corpse but still charged to the tenant's lease.
  EXPECT_EQ(cluster.held_slots(), 4u);

  cluster.set_lease_target(CapacityView::single(3));  // parks the idle online slot
  EXPECT_EQ(cluster.held_slots(), 3u);
  cluster.set_lease_target(CapacityView::single(2));  // no idle slot left: absorbs the corpse
  EXPECT_EQ(cluster.held_slots(), 2u);
  EXPECT_TRUE(
      has_event(sink, {.kind = EventKind::LeasePark, .machine = 0, .detail = "reclaim-offline"}));

  // The absorbed slot is sick: raising the target can only re-grant the
  // healthy parked slot.
  cluster.set_lease_target(CapacityView::single(4));
  EXPECT_TRUE(cluster.grant_one(0));
  EXPECT_EQ(cluster.held_slots(), 3u);
  EXPECT_FALSE(cluster.grant_one(0));  // only the sick slot remains

  sim.run_until(SimTime::seconds(350));  // restart heals the parked corpse
  EXPECT_TRUE(has_event(sink, {.kind = EventKind::NodeRestart, .machine = 0, .detail = "parked"}));
  EXPECT_TRUE(cluster.grant_one(0));
  EXPECT_EQ(cluster.held_slots(), 4u);

  sim.run_until(SimTime::hours(10));
  ASSERT_TRUE(cluster.finished());
  const auto result = cluster.collect();
  EXPECT_EQ(result.recovery.node_crashes, 1u);
  for (const auto& job : result.job_stats) {
    EXPECT_EQ(job.final_status, JobStatus::Completed) << "job " << job.job_id;
    EXPECT_EQ(job.epochs_completed, 8u) << "job " << job.job_id;
  }
}

TEST(TenantLeaseTest, ReclaimFromQuarantinedNodeHealsThroughProbation) {
  sim::Simulation sim;
  obs::RecordingSink sink;
  const auto trace = linear_trace(4, 12);
  auto options = tenant_options(2, sink);
  options.epoch_jitter_sigma = 0.05;
  NodeSlowdownEvent slow;  // machine 0 runs 4x slow until 2000 s
  slow.machine = 0;
  slow.factor = 4.0;
  slow.until = SimTime::seconds(2000);
  options.fault_plan.slowdowns.push_back(slow);
  options.health.enabled = true;
  options.health.heartbeat_interval = SimTime::seconds(10);
  options.health.probation_after = SimTime::minutes(15);
  HyperDriveCluster cluster(trace, options, sim);
  core::DefaultPolicy policy;
  cluster.start(policy);

  sim.run_until(SimTime::seconds(1500));
  ASSERT_GE(cluster.health_monitor().stats().quarantines, 1u);

  // Reclaim while machine 0 sits quarantined: the sick slot is absorbed in
  // place and the tenant keeps only its healthy machine.
  cluster.set_lease_target(CapacityView::single(1));
  EXPECT_EQ(cluster.held_slots(), 1u);
  EXPECT_TRUE(
      has_event(sink, {.kind = EventKind::LeasePark, .machine = 0, .detail = "reclaim-offline"}) ||
      has_event(sink,
                {.kind = EventKind::LeasePark, .machine = 0, .detail = "reclaim-quarantine"}));

  sim.run_until(SimTime::hours(10));
  ASSERT_TRUE(cluster.finished());
  const auto result = cluster.collect();
  EXPECT_EQ(result.recovery.nodes_quarantined, 1u);
  // Probation cleared the parked slot without re-admitting it (only a lease
  // grant does that).
  EXPECT_TRUE(
      has_event(sink, {.kind = EventKind::NodeProbation, .machine = 0, .detail = "parked"}));
  EXPECT_EQ(result.recovery.epochs_lost, 0u);  // quarantine migration is clean
  for (const auto& job : result.job_stats) {
    EXPECT_EQ(job.final_status, JobStatus::Completed) << "job " << job.job_id;
    EXPECT_EQ(job.epochs_completed, 12u) << "job " << job.job_id;
  }
}

}  // namespace
}  // namespace hyperdrive::cluster
