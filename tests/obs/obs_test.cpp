// The observability battery (DESIGN.md §10). Covers, in order:
//   * MetricsRegistry: registration-order CSV export, name/type conflicts,
//     histogram bucket accounting;
//   * TraceEvent rendering: timeline CSV/JSONL field mapping and escaping;
//   * sink invisibility: attaching a RecordingSink + registry to a faulty
//     cluster run changes nothing — its encoded state and result are
//     byte-identical to the bare run's;
//   * metrics faithfulness: published counters mirror the result counters;
//   * sweep timeline determinism: the cell-prefixed timeline CSV is
//     byte-identical under --jobs 1 and --jobs 8.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/experiment_runner.hpp"
#include "core/policies/default_policy.hpp"
#include "core/sweep_engine.hpp"
#include "obs/event.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "obs/sink.hpp"
#include "support/single_run.hpp"
#include "support/timeline.hpp"
#include "util/bytes.hpp"

namespace hyperdrive {
namespace {

using util::SimTime;

// ----------------------------------------------------------------- metrics --

TEST(ObsMetricsTest, CsvFollowsRegistrationOrder) {
  obs::MetricsRegistry registry;
  registry.counter("b.count").add(2);
  registry.gauge("a.value").set(1.5);
  registry.counter("b.count").add(3);  // find-or-register: no new entry

  std::ostringstream os;
  registry.write_csv(os);
  EXPECT_EQ(os.str(),
            "metric,type,value\n"
            "b.count,counter,5\n"
            "a.value,gauge,1.500000\n");
  EXPECT_EQ(registry.size(), 2u);
}

TEST(ObsMetricsTest, NameTypeConflictThrows) {
  obs::MetricsRegistry registry;
  registry.counter("x").add();
  EXPECT_THROW((void)registry.gauge("x"), std::invalid_argument);
  EXPECT_THROW((void)registry.histogram("x", {1.0}), std::invalid_argument);
}

TEST(ObsMetricsTest, HistogramBucketsAreCumulative) {
  obs::MetricsRegistry registry;
  auto& h = registry.histogram("lat", {1.0, 5.0});
  h.observe(0.5);
  h.observe(2.0);
  h.observe(10.0);

  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 12.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
  EXPECT_EQ(h.cumulative(0), 1u);  // <= 1.0
  EXPECT_EQ(h.cumulative(1), 2u);  // <= 5.0

  std::ostringstream os;
  registry.write_csv(os);
  EXPECT_EQ(os.str(),
            "metric,type,value\n"
            "lat.count,histogram,3\n"
            "lat.sum,histogram,12.500000\n"
            "lat.min,histogram,0.500000\n"
            "lat.max,histogram,10.000000\n"
            "lat.le_1.000000,histogram,1\n"
            "lat.le_5.000000,histogram,2\n");
}

TEST(ObsMetricsTest, UnsortedHistogramBoundsThrow) {
  obs::MetricsRegistry registry;
  EXPECT_THROW((void)registry.histogram("bad", {5.0, 1.0}), std::invalid_argument);
}

// ---------------------------------------------------------------- rendering --

TEST(ObsEventTest, JsonlEscapesEveryControlByte) {
  // Study names are whitespace-delimited tokens from user files, so they can
  // carry control bytes; JSON allows none raw. The classic escapes stay.
  obs::TraceEvent event(obs::EventKind::StudyCancelled);
  event.study = "a\x01" "b\x1f\t\"\\";
  std::ostringstream jsonl;
  obs::write_timeline_jsonl(jsonl, std::vector<obs::TraceEvent>{event});
  EXPECT_EQ(jsonl.str(),
            "{\"time_s\":0.000000000,\"kind\":\"study-cancelled\","
            "\"study\":\"a\\u0001b\\u001f\\t\\\"\\\\\"}\n");
}

TEST(ObsEventTest, TimelineFieldsMapAbsentIdsToEmpty) {
  obs::TraceEvent event(obs::EventKind::JobSuspend);
  event.time = SimTime::seconds(2.0);
  event.job = 4;
  event.epoch = 6;

  const auto columns = obs::timeline_columns();
  const auto fields = obs::timeline_fields(event);
  ASSERT_EQ(columns.size(), fields.size());
  EXPECT_EQ(columns[0], "time_s");
  EXPECT_EQ(fields[0], "2.000000000");
  EXPECT_EQ(fields[1], "suspend");
  EXPECT_EQ(fields[2], "");  // study
  EXPECT_EQ(fields[3], "4");
  EXPECT_EQ(fields[4], "");  // machine absent
  EXPECT_EQ(fields[5], "6");

  std::ostringstream csv;
  obs::write_timeline_csv(csv, std::vector<obs::TraceEvent>{event});
  EXPECT_EQ(csv.str(),
            "time_s,kind,study,job,machine,epoch,detail\n"
            "2.000000000,suspend,,4,,6,\n");

  std::ostringstream jsonl;
  obs::write_timeline_jsonl(jsonl, std::vector<obs::TraceEvent>{event});
  EXPECT_EQ(jsonl.str(),
            "{\"time_s\":2.000000000,\"kind\":\"suspend\",\"job\":4,\"epoch\":6}\n");

  // A tenant's study label fills the study column and key.
  event.study = "alpha";
  EXPECT_EQ(obs::timeline_fields(event)[2], "alpha");
  std::ostringstream labelled_csv;
  obs::write_timeline_csv(labelled_csv, std::vector<obs::TraceEvent>{event});
  EXPECT_EQ(labelled_csv.str(),
            "time_s,kind,study,job,machine,epoch,detail\n"
            "2.000000000,suspend,alpha,4,,6,\n");
  std::ostringstream labelled_jsonl;
  obs::write_timeline_jsonl(labelled_jsonl, std::vector<obs::TraceEvent>{event});
  EXPECT_EQ(labelled_jsonl.str(),
            "{\"time_s\":2.000000000,\"kind\":\"suspend\",\"study\":\"alpha\",\"job\":4,"
            "\"epoch\":6}\n");

  // The golden-trace tests' row is the exported row, quoting included.
  event.detail = "slow, \"quoted\"";
  std::ostringstream quoted;
  obs::write_timeline_csv(quoted, std::vector<obs::TraceEvent>{event});
  EXPECT_EQ(timeline_row(event), "2.000000000,suspend,alpha,4,,6,\"slow, \"\"quoted\"\"\"");
  EXPECT_EQ(quoted.str(),
            "time_s,kind,study,job,machine,epoch,detail\n" + timeline_row(event) + "\n");
}

// ------------------------------------------------------------ golden traces --

workload::Trace linear_trace(std::size_t jobs, std::size_t epochs,
                             double target = 0.99) {
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
      job.curve.perf.push_back(0.5 * static_cast<double>(e) /
                               static_cast<double>(epochs));
    }
    trace.jobs.push_back(std::move(job));
  }
  return trace;
}

cluster::ClusterOptions faulty_options() {
  cluster::ClusterOptions options;
  options.machines = 2;
  options.overheads = cluster::cifar_overhead_model();
  options.epoch_jitter_sigma = 0.05;
  options.seed = 99;
  options.fault_plan.seed = 5;
  options.fault_plan.default_message_faults.drop_prob = 0.05;
  cluster::NodeCrashEvent crash;
  crash.machine = 0;
  crash.at = SimTime::minutes(10);
  crash.restart_after = SimTime::minutes(5);
  options.fault_plan.crashes.push_back(crash);
  return options;
}

/// Suspends every job at epoch 2 once — exercises the snapshot path.
class SuspendOncePolicy final : public core::DefaultPolicy {
 public:
  core::JobDecision on_iteration_finish(core::SchedulerOps& ops,
                                        const core::JobEvent& event) override {
    if (event.epoch == 2 && suspended_.insert(event.job_id).second) {
      return core::JobDecision::Suspend;
    }
    return core::DefaultPolicy::on_iteration_finish(ops, event);
  }

 private:
  std::set<core::JobId> suspended_;
};

TEST(ObsGoldenTraceTest, AttachedSinkIsByteInvisible) {
  const auto trace = linear_trace(5, 10);
  const auto options = faulty_options();

  SuspendOncePolicy p1, p2;
  sim::Simulation bare_sim;
  cluster::HyperDriveCluster bare(trace, options, bare_sim);
  const auto bare_result = run_to_end(bare_sim, bare, p1);

  auto observed_options = options;
  obs::RecordingSink sink;
  obs::MetricsRegistry registry;
  observed_options.obs.sink = &sink;
  observed_options.obs.metrics = &registry;
  sim::Simulation observed_sim;
  cluster::HyperDriveCluster observed(trace, observed_options, observed_sim);
  const auto observed_result = run_to_end(observed_sim, observed, p2);

  // Sinks observe, never perturb: the full deterministic cluster state (job,
  // machine, lease and health state, RNG streams) is byte-identical...
  ASSERT_FALSE(sink.events.empty());
  util::ByteWriter bare_state, observed_state;
  bare.encode_state(bare_state);
  observed.encode_state(observed_state);
  EXPECT_EQ(bare_state.bytes(), observed_state.bytes());
  // ...and so is the result.
  EXPECT_EQ(bare_result.total_time, observed_result.total_time);
  EXPECT_EQ(bare_result.best_perf, observed_result.best_perf);
  EXPECT_EQ(bare_result.suspends, observed_result.suspends);
  EXPECT_EQ(bare_result.recovery, observed_result.recovery);
}

TEST(ObsGoldenTraceTest, PublishedMetricsMirrorResultCounters) {
  const auto trace = linear_trace(5, 10);
  auto options = faulty_options();
  obs::MetricsRegistry registry;
  cluster::preregister_cluster_metrics(registry);
  options.obs.metrics = &registry;

  SuspendOncePolicy policy;
  const auto result = cluster::run_cluster_experiment(trace, policy, options);

  EXPECT_EQ(registry.counter("cluster.jobs_started").value(), result.jobs_started);
  EXPECT_EQ(registry.counter("cluster.suspends").value(), result.suspends);
  EXPECT_EQ(registry.counter("cluster.terminations").value(), result.terminations);
  EXPECT_EQ(registry.counter("recovery.node_crashes").value(),
            result.recovery.node_crashes);
  EXPECT_EQ(registry.counter("recovery.jobs_requeued").value(),
            result.recovery.jobs_requeued);
  EXPECT_EQ(registry.counter("recovery.wrong_kills").value(),
            result.recovery.wrong_kills);
}

// ------------------------------------------------------------ sweep timeline --

TEST(ObsSweepTimelineTest, ThreadCountDoesNotChangeTimelineBytes) {
  core::SweepSpec spec;
  spec.name = "obs_sweep";
  spec.base_seed = 3;
  spec.capture_events = true;
  (void)spec.add_repeat_axis(4);
  spec.trace = [](const core::SweepCell&) { return linear_trace(4, 8); };
  spec.policy = [](const core::SweepCell&) {
    return std::make_unique<core::DefaultPolicy>();
  };
  spec.options = [](const core::SweepCell& cell) {
    core::RunnerOptions options;
    options.substrate = core::Substrate::Cluster;
    options.machines = 2;
    options.seed = 100 + cell.seed;
    return options;
  };

  const auto serial = core::run_sweep(spec, 1);
  const auto fanned = core::run_sweep(spec, 8);

  std::size_t events = 0;
  for (const auto& row : serial.rows) events += row.events.size();
  EXPECT_GT(events, 0u);

  std::ostringstream a, b;
  serial.save_timeline_csv(a);
  fanned.save_timeline_csv(b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(serial.to_csv(), fanned.to_csv());
}

TEST(ObsSweepTimelineTest, CaptureWithCustomRunExecutorThrows) {
  core::SweepSpec spec;
  (void)spec.add_axis("arm", {"a", "b"});
  spec.capture_events = true;
  spec.run = [](const core::SweepCell&) { return core::ExperimentResult{}; };
  EXPECT_THROW((void)core::run_sweep(spec, 1), std::invalid_argument);
}

}  // namespace
}  // namespace hyperdrive
