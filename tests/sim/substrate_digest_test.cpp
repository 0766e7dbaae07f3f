// Pinned digests of both substrates' outputs. The replay arm runs the
// scheduler zoo (pbt with an explore hook, so clones happen, and a
// barrier-wrapped pop) as one sweep and digests its CSV and every row's
// per-job stats; the cluster arm digests the timeline rows, per-job stats and
// result counters of a faulty, health-monitored pop run, a cloning pbt run
// and a global-stop-criterion run. GoldenTraceTest and the determinism suites
// compare two runs of one build; these values compare a build against the one
// that recorded them, so a change that reorders the idle queue, the clone
// mint, the target test or the result assembly on every substrate at once
// fails here. They were recorded with GCC 12 and glibc 2.36 on x86-64; a libm
// whose exp/log/pow round differently moves them, and the fix is then to
// re-record them from an unchanged build on that platform, not to loosen the
// check.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/experiment_runner.hpp"
#include "core/policies/barrier_policy.hpp"
#include "core/policy_registry.hpp"
#include "core/sweep_engine.hpp"
#include "obs/sink.hpp"
#include "support/timeline.hpp"
#include "workload/cifar_model.hpp"
#include "workload/trace_tools.hpp"

namespace hyperdrive::core {
namespace {

/// FNV-1a over bytes (spelled out here so the digests do not depend on the
/// code under test).
std::uint64_t fnv(std::uint64_t h, const std::string& bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr std::uint64_t kBasis = 1469598103934665603ULL;

std::string hex_bits(double x) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(x)));
  return buf;
}

/// One line per job: every JobRunStats field, doubles as exact bit patterns.
std::string job_stats_text(const ExperimentResult& result) {
  std::string out;
  for (const JobRunStats& s : result.job_stats) {
    out += std::to_string(s.job_id) + ',' + hex_bits(s.execution_time.to_seconds()) + ',' +
           std::to_string(s.epochs_completed) + ',' + std::to_string(s.times_suspended) +
           ',' + std::to_string(static_cast<int>(s.final_status)) + ',' +
           hex_bits(s.best_perf) + ',' + s.study + '\n';
  }
  return out;
}

/// The result fields a substrate accumulates outside job_stats.
std::string summary_text(const ExperimentResult& r) {
  return std::to_string(r.reached_target) + ',' + hex_bits(r.time_to_target.to_seconds()) +
         ',' + std::to_string(r.winning_job) + ',' + hex_bits(r.best_perf) + ',' +
         hex_bits(r.total_time.to_seconds()) + ',' +
         hex_bits(r.total_machine_time.to_seconds()) + ',' +
         std::to_string(r.jobs_started) + ',' + std::to_string(r.suspends) + ',' +
         std::to_string(r.terminations) + ',' + std::to_string(r.clones) + '\n';
}

// ---------------------------------------------------------------------------
// Replay arm.

TEST(SubstrateDigestTest, ReplaySweepIsPinned) {
  const auto model = std::make_shared<workload::CifarWorkloadModel>();
  const std::vector<std::string> arms = {"pop",  "bandit", "earlyterm",  "hyperband",
                                         "asha", "pbt",    "pop+barrier"};
  SweepSpec spec;
  spec.name = "substrate_digest";
  const auto arm_ax = spec.add_axis("arm", arms);
  const auto repeat_ax = spec.add_repeat_axis(2);
  spec.run = [&](const SweepCell& cell) {
    const std::size_t repeat = cell.at(repeat_ax);
    const auto trace = workload::reachable_trace(*model, 20, 4100 + repeat * 17);
    const std::string& arm = arms[cell.at(arm_ax)];
    std::unique_ptr<SchedulingPolicy> policy;
    if (arm == "pop+barrier") {
      policy = std::make_unique<BarrierPolicy>(make_standard_policy("pop", repeat));
    } else {
      policy = make_standard_policy(arm, repeat);
    }
    RunnerOptions options;
    options.substrate = Substrate::TraceReplay;
    options.machines = 4;
    options.explore = make_model_explore(model);
    return run_experiment(trace, *policy, options);
  };
  const SweepTable table = run_sweep(spec, 2);

  std::uint64_t stats = kBasis;
  std::size_t clones = 0;
  for (const SweepRow& row : table.rows) {
    stats = fnv(stats, job_stats_text(row.result));
    if (table.label(row, "arm") == "pbt") clones += row.result.clones;
  }
  ASSERT_GE(clones, 1u);  // the continuation mint is on the pinned path
  EXPECT_EQ(fnv(kBasis, table.to_csv()), 0xd44516f93e21c143ULL);
  EXPECT_EQ(stats, 0xe438e163f01acfbfULL);
}

// ---------------------------------------------------------------------------
// Cluster arm.

struct ClusterDigest {
  std::uint64_t timeline = kBasis;
  std::uint64_t stats = kBasis;
  ExperimentResult result;
};

ClusterDigest run_cluster_digest(const workload::Trace& trace, const std::string& policy_name,
                                 RunnerOptions options) {
  obs::RecordingSink sink;
  options.substrate = Substrate::Cluster;
  options.obs.sink = &sink;
  const auto policy = make_standard_policy(policy_name, options.seed);
  ClusterDigest digest;
  digest.result = run_experiment(trace, *policy, options);
  for (const std::string& row : timeline(sink)) {
    digest.timeline = fnv(digest.timeline, row + '\n');
  }
  digest.stats = fnv(fnv(kBasis, job_stats_text(digest.result)), summary_text(digest.result));
  return digest;
}

TEST(SubstrateDigestTest, ClusterFaultyHealthRunIsPinned) {
  const workload::CifarWorkloadModel model;
  const auto trace = workload::reachable_trace(model, 24, 4201);
  RunnerOptions options;
  options.machines = 4;
  options.seed = 7;
  options.health.enabled = true;
  options.fault_plan.seed = 11;
  options.fault_plan.default_message_faults.drop_prob = 0.05;
  options.fault_plan.crashes.push_back(
      {1, util::SimTime::hours(0.3), util::SimTime::hours(0.2)});
  cluster::NodeSlowdownEvent slow;
  slow.machine = 2;
  slow.from = util::SimTime::hours(0.1);
  slow.factor = 3.0;
  options.fault_plan.slowdowns.push_back(slow);
  options.fault_plan.snapshot_corrupt_prob = 0.1;
  const ClusterDigest d = run_cluster_digest(trace, "pop", options);
  EXPECT_GE(d.result.recovery.node_crashes, 1u);
  EXPECT_EQ(d.timeline, 0x17ec4974254700e8ULL);
  EXPECT_EQ(d.stats, 0x068a4c4f675792abULL);
}

TEST(SubstrateDigestTest, ClusterPbtCloneRunIsPinned) {
  const auto model = std::make_shared<workload::CifarWorkloadModel>();
  const auto trace = workload::reachable_trace(*model, 16, 777);
  RunnerOptions options;
  options.machines = 4;
  options.seed = 3;
  options.max_experiment_time = util::SimTime::hours(96);
  options.explore = make_model_explore(model);
  const ClusterDigest d = run_cluster_digest(trace, "pbt", options);
  ASSERT_GE(d.result.clones, 1u);
  EXPECT_EQ(d.timeline, 0xccdd322fc0efc755ULL);
  EXPECT_EQ(d.stats, 0x3d555f6cf8ad8c26ULL);
}

TEST(SubstrateDigestTest, ClusterStopCriterionRunIsPinned) {
  const workload::CifarWorkloadModel model;
  const auto trace = workload::reachable_trace(model, 24, 4301);
  RunnerOptions options;
  options.machines = 4;
  options.seed = 5;
  const double goal = trace.target_performance - 0.05;
  options.stop_criterion = [goal](const JobEvent& event) {
    return event.perf >= goal && event.epoch >= 20;
  };
  const ClusterDigest d = run_cluster_digest(trace, "pop", options);
  ASSERT_TRUE(d.result.reached_target);
  EXPECT_EQ(d.timeline, 0x76d7265a73214275ULL);
  EXPECT_EQ(d.stats, 0xc19b93910d4c4208ULL);
}

}  // namespace
}  // namespace hyperdrive::core
