// Elastic cost-aware capacity tests (DESIGN.md §15):
//   * CapacityView arithmetic and NodeCatalog block layout / class lookup;
//   * node-catalog text codec round-trip and pinned parse errors;
//   * Autoscaler billing integral, reconcile ordering (release expensive
//     first, acquire cheapest-per-effective-speed first) and the budget cap;
//   * spot preemption drains a busy machine through clean snapshot migration
//     (the wrong-kill oracle stays at zero) and yanks crash-style when the
//     warning window is too short to drain.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "cluster/autoscaler.hpp"
#include "cluster/cluster.hpp"
#include "cluster/node_catalog.hpp"
#include "core/policies/default_policy.hpp"
#include "obs/sink.hpp"
#include "sim/simulation.hpp"
#include "support/timeline.hpp"
#include "workload/trace.hpp"

namespace hyperdrive::cluster {
namespace {

using obs::EventKind;
using util::SimTime;

NodeCatalog mixed_catalog() {
  NodeCatalog catalog;
  catalog.add({"standard", 4, 1.0, 1.0, false});
  catalog.add({"gpu", 2, 4.0, 2.0, false});
  catalog.add({"gpu-spot", 2, 1.5, 2.0, true});
  return catalog;
}

TEST(ElasticCapacityViewTest, SingleOfSetTotalAndEquality) {
  CapacityView view;
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.total(), 0u);
  EXPECT_EQ(view.of(3), 0u);  // out of range reads as zero

  view.set(2, 5);  // grows the vector: {0, 0, 5}
  EXPECT_EQ(view.classes(), 3u);
  EXPECT_EQ(view.of(0), 0u);
  EXPECT_EQ(view.of(2), 5u);
  view.set(0, 1);
  EXPECT_EQ(view.total(), 6u);

  const CapacityView solo = CapacityView::single(4);
  EXPECT_EQ(solo.classes(), 1u);
  EXPECT_EQ(solo.of(0), 4u);
  EXPECT_EQ(solo.total(), 4u);
  EXPECT_EQ(solo, CapacityView({4}));
  // Width matters for equality: {4} != {4, 0}.
  EXPECT_NE(solo, CapacityView({4, 0}));
}

TEST(ElasticCatalogTest, UniformCatalogIsOneExactNoOpClass) {
  const NodeCatalog catalog = NodeCatalog::uniform(6);
  ASSERT_EQ(catalog.classes(), 1u);
  EXPECT_EQ(catalog.at(0).name, "standard");
  EXPECT_EQ(catalog.at(0).count, 6u);
  EXPECT_EQ(catalog.at(0).price_per_hour, 1.0);
  EXPECT_EQ(catalog.at(0).speed_factor, 1.0);
  EXPECT_FALSE(catalog.at(0).spot);
  EXPECT_FALSE(catalog.heterogeneous());
  EXPECT_EQ(catalog.total_nodes(), 6u);
  EXPECT_EQ(catalog.full(), CapacityView::single(6));
}

TEST(ElasticCatalogTest, BlocksAreContiguousAndLookupsResolve) {
  const NodeCatalog catalog = mixed_catalog();
  EXPECT_EQ(catalog.total_nodes(), 8u);
  EXPECT_TRUE(catalog.heterogeneous());
  EXPECT_EQ(catalog.block_begin(0), 0u);
  EXPECT_EQ(catalog.block_end(0), 4u);
  EXPECT_EQ(catalog.block_begin(2), 6u);
  EXPECT_EQ(catalog.block_end(2), 8u);
  EXPECT_EQ(catalog.class_of(0), 0u);
  EXPECT_EQ(catalog.class_of(3), 0u);
  EXPECT_EQ(catalog.class_of(4), 1u);
  EXPECT_EQ(catalog.class_of(7), 2u);
  EXPECT_EQ(catalog.speed(0), 1.0);
  EXPECT_EQ(catalog.speed(5), 2.0);
  ASSERT_TRUE(catalog.find("gpu-spot").has_value());
  EXPECT_EQ(*catalog.find("gpu-spot"), 2u);
  EXPECT_FALSE(catalog.find("tpu").has_value());
  // Empty catalog: speed defaults to 1.0 so call sites need no guard.
  EXPECT_EQ(NodeCatalog{}.speed(0), 1.0);
}

TEST(ElasticCatalogIoTest, SaveLoadIsAFixedPoint) {
  const NodeCatalog catalog = mixed_catalog();
  std::ostringstream first;
  save_node_catalog(catalog, first);
  std::istringstream in(first.str());
  const NodeCatalog reloaded = load_node_catalog(in);
  EXPECT_EQ(reloaded, catalog);
  std::ostringstream second;
  save_node_catalog(reloaded, second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(ElasticCatalogIoTest, ErrorsCarryLineNumbers) {
  const auto load = [](const std::string& text) {
    std::istringstream in(text);
    return load_node_catalog(in);
  };
  EXPECT_NO_THROW(load("# comment only\n\nnode-class a 2 1.0 1.0\n"));
  try {
    load("node-class a 2 1.0 1.0\nnode-cls b 1 1.0 1.0\n");
    FAIL() << "expected parse failure";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("node catalog line 2"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(load("node-class a 2 1.0\n"), std::invalid_argument);   // missing speed
  EXPECT_THROW(load("node-class a 2 1.0 1.0 cheap\n"), std::invalid_argument);
  EXPECT_THROW(load("node-class a 2 -1.0 1.0\n"), std::invalid_argument);  // price < 0
  EXPECT_THROW(load("node-class a 2 1.0 1.0\nnode-class a 1 1.0 1.0\n"),
               std::invalid_argument);  // duplicate class
}

TEST(AutoscalerTest, BillsAcquiredCapacityByTheHour) {
  Autoscaler::Options options;
  options.catalog = mixed_catalog();
  // Hold 2 standard + 1 gpu: $2/hr + $4/hr = $6/hr.
  CapacityView held;
  held.set(0, 2);
  held.set(1, 1);
  Autoscaler scaler(options, held);
  EXPECT_EQ(scaler.hourly_rate(), 6.0);
  scaler.advance(SimTime::minutes(30));
  EXPECT_DOUBLE_EQ(scaler.spend_usd(), 3.0);
  scaler.advance(SimTime::minutes(30));  // same instant: monotonic, no double-bill
  EXPECT_DOUBLE_EQ(scaler.spend_usd(), 3.0);
  scaler.advance(SimTime::hours(1));
  EXPECT_DOUBLE_EQ(scaler.spend_usd(), 6.0);
}

TEST(AutoscalerTest, ReconcileReleasesExpensiveFirstAcquiresCheapestPerSpeedFirst) {
  Autoscaler::Options options;
  options.catalog = mixed_catalog();
  Autoscaler scaler(options, options.catalog.full());  // 4 std, 2 gpu, 2 spot

  // Demand shrinks to 3 standard only: the expensive gpu nodes go first.
  CapacityView demand;
  demand.set(0, 3);
  demand.set(2, 0);
  const auto released = scaler.reconcile(demand, SimTime::zero());
  ASSERT_EQ(released.size(), 3u);
  EXPECT_EQ(released[0], (ScaleAction{ScaleAction::Kind::Release, 1, 2}));  // $4/hr
  EXPECT_EQ(released[1], (ScaleAction{ScaleAction::Kind::Release, 2, 2}));  // $1.5/hr
  EXPECT_EQ(released[2], (ScaleAction{ScaleAction::Kind::Release, 0, 1}));  // $1/hr
  EXPECT_EQ(scaler.acquired().total(), 3u);

  // Demand grows everywhere: spot gpus ($0.75 per speed unit) come back
  // before standard ($1.0) before on-demand gpu ($2.0).
  const auto acquired = scaler.reconcile(options.catalog.full(), SimTime::zero());
  ASSERT_EQ(acquired.size(), 3u);
  EXPECT_EQ(acquired[0], (ScaleAction{ScaleAction::Kind::Acquire, 2, 2}));
  EXPECT_EQ(acquired[1], (ScaleAction{ScaleAction::Kind::Acquire, 0, 1}));
  EXPECT_EQ(acquired[2], (ScaleAction{ScaleAction::Kind::Acquire, 1, 2}));
  EXPECT_EQ(scaler.acquired(), options.catalog.full());
  // Demand above the configured count clamps to the catalog.
  CapacityView over;
  over.set(0, 100);
  (void)scaler.reconcile(over, SimTime::zero());
  EXPECT_EQ(scaler.acquired().of(0), 4u);
}

TEST(AutoscalerTest, BudgetCapStopsAcquisitionAndShedsFreeCapacity) {
  Autoscaler::Options options;
  options.catalog = mixed_catalog();
  options.budget_usd = 4.0;
  CapacityView held;
  held.set(0, 4);  // $4/hr
  Autoscaler scaler(options, held);
  EXPECT_FALSE(scaler.over_budget());

  // After an hour the bill hits the cap: acquisition requests are refused.
  CapacityView want_more = held;
  want_more.set(1, 2);
  const auto actions = scaler.reconcile(want_more, SimTime::hours(1));
  EXPECT_TRUE(scaler.over_budget());
  EXPECT_TRUE(actions.empty());
  EXPECT_EQ(scaler.acquired().of(1), 0u);

  // Undemanded capacity is shed even while over budget (it stops the bleed).
  CapacityView less;
  less.set(0, 1);
  const auto shed = scaler.reconcile(less, SimTime::hours(1));
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0], (ScaleAction{ScaleAction::Kind::Release, 0, 3}));
}

TEST(AutoscalerTest, EmptyCatalogIsInert) {
  Autoscaler scaler(Autoscaler::Options{}, CapacityView{});
  EXPECT_TRUE(scaler.reconcile(CapacityView::single(5), SimTime::hours(1)).empty());
  EXPECT_TRUE(scaler.acquired().empty());
  EXPECT_EQ(scaler.spend_usd(), 0.0);
}

// ------------------------------------------------------- spot preemption

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

ClusterOptions spot_options(std::size_t machines) {
  ClusterOptions options;
  options.machines = machines;
  options.overheads = cifar_overhead_model();
  options.epoch_jitter_sigma = 0.0;
  options.seed = 11;
  return options;
}

TEST(ElasticSpotTest, BusyMachineDrainsThroughCleanMigrationNeverAKill) {
  sim::Simulation sim;
  const auto trace = linear_trace(4, 6);
  auto options = spot_options(4);
  SpotPreemptionEvent preemption;  // warning at 90 s, reclaim 120 s later
  preemption.machine = 3;
  preemption.at = SimTime::seconds(90);  // mid epoch 2: machine 3 is busy
  options.fault_plan.spot_preemptions.push_back(preemption);
  obs::RecordingSink sink;
  options.obs.sink = &sink;
  HyperDriveCluster cluster(trace, options, sim);
  core::DefaultPolicy policy;
  cluster.start(policy);

  sim.run_until(SimTime::hours(10));
  ASSERT_TRUE(cluster.finished());
  const auto result = cluster.collect();
  EXPECT_EQ(cluster.fault_stats().spot_warnings, 1u);
  EXPECT_EQ(cluster.fault_stats().spot_preemptions, 1u);
  EXPECT_TRUE(has_event(sink, {.kind = EventKind::SpotWarning, .machine = 3}));
  EXPECT_TRUE(has_event(sink, {.kind = EventKind::JobMigrate, .machine = 3, .detail = "spot"}));
  // The drain is the straggler-migration path: a clean snapshot suspend —
  // never a kill, never a lost epoch.
  EXPECT_GE(result.recovery.jobs_migrated, 1u);
  EXPECT_EQ(result.recovery.wrong_kills, 0u);
  EXPECT_EQ(result.recovery.epochs_lost, 0u);
  EXPECT_EQ(result.terminations, 0u);
  // The reclaimed node never comes back; the survivors finish every job.
  for (const auto& job : result.job_stats) {
    EXPECT_EQ(job.final_status, core::JobStatus::Completed) << "job " << job.job_id;
    EXPECT_EQ(job.epochs_completed, 6u) << "job " << job.job_id;
  }
}

TEST(ElasticSpotTest, TooShortWarningYanksCrashStyleButJobsStillFinish) {
  sim::Simulation sim;
  const auto trace = linear_trace(4, 6);
  auto options = spot_options(4);
  SpotPreemptionEvent preemption;
  preemption.machine = 2;
  preemption.at = SimTime::seconds(90);
  preemption.warning = SimTime::seconds(1);  // cannot drain a mid-epoch job
  options.fault_plan.spot_preemptions.push_back(preemption);
  obs::RecordingSink sink;
  options.obs.sink = &sink;
  HyperDriveCluster cluster(trace, options, sim);
  core::DefaultPolicy policy;
  cluster.start(policy);

  sim.run_until(SimTime::hours(10));
  ASSERT_TRUE(cluster.finished());
  const auto result = cluster.collect();
  EXPECT_TRUE(has_event(sink, {.kind = EventKind::SpotPreempted, .machine = 2}));
  // The yank is a crash, not a kill: the occupant rolls back and requeues.
  EXPECT_EQ(result.recovery.wrong_kills, 0u);
  EXPECT_EQ(result.terminations, 0u);
  for (const auto& job : result.job_stats) {
    EXPECT_EQ(job.final_status, core::JobStatus::Completed) << "job " << job.job_id;
    EXPECT_EQ(job.epochs_completed, 6u) << "job " << job.job_id;
  }
}

TEST(ElasticSpotTest, IdleSpotMachineLeavesImmediatelyOnWarning) {
  sim::Simulation sim;
  const auto trace = linear_trace(2, 4);  // 2 jobs on 4 machines: 2 idle
  auto options = spot_options(4);
  SpotPreemptionEvent preemption;
  preemption.machine = 3;  // idle throughout
  preemption.at = SimTime::seconds(90);
  options.fault_plan.spot_preemptions.push_back(preemption);
  HyperDriveCluster cluster(trace, options, sim);
  core::DefaultPolicy policy;
  cluster.start(policy);

  sim.run_until(SimTime::hours(10));
  ASSERT_TRUE(cluster.finished());
  const auto result = cluster.collect();
  EXPECT_EQ(result.recovery.jobs_migrated, 0u);
  EXPECT_EQ(result.recovery.epochs_lost, 0u);
  for (const auto& job : result.job_stats) {
    EXPECT_EQ(job.final_status, core::JobStatus::Completed) << "job " << job.job_id;
  }
}

TEST(ElasticSpotTest, SpotPlanRoundTripsThroughFaultPlanText) {
  FaultPlan plan;
  SpotPreemptionEvent preemption;
  preemption.machine = 5;
  preemption.at = SimTime::minutes(30);
  preemption.warning = SimTime::seconds(90);
  plan.spot_preemptions.push_back(preemption);
  EXPECT_TRUE(plan.any());

  std::ostringstream out;
  save_fault_plan(plan, out);
  EXPECT_NE(out.str().find("spot-preemption 5 1800 90"), std::string::npos) << out.str();
  std::istringstream in(out.str());
  const FaultPlan reloaded = load_fault_plan(in);
  ASSERT_EQ(reloaded.spot_preemptions.size(), 1u);
  EXPECT_EQ(reloaded.spot_preemptions[0].machine, 5u);
  EXPECT_EQ(reloaded.spot_preemptions[0].at, SimTime::minutes(30));
  EXPECT_EQ(reloaded.spot_preemptions[0].warning, SimTime::seconds(90));
}

}  // namespace
}  // namespace hyperdrive::cluster
