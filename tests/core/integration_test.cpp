// End-to-end integration tests: full experiments on the calibrated synthetic
// workloads, checking the qualitative results the paper reports.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/experiment_runner.hpp"
#include "core/policy_registry.hpp"
#include "obs/sink.hpp"
#include "support/timeline.hpp"
#include "workload/cifar_model.hpp"
#include "workload/lunar_model.hpp"

namespace hyperdrive::core {
namespace {

using util::SimTime;

workload::Trace reachable_trace(const workload::WorkloadModel& model, std::size_t configs,
                                std::uint64_t seed) {
  auto trace = workload::generate_trace(model, configs, seed);
  while (!trace.target_reachable()) {
    trace = workload::generate_trace(model, configs, ++seed);
  }
  return trace;
}

// The suite's parameter is an enum rather than the policy name so that its
// registered test names, which print the parameter, stay stable.
enum class Kind { Default, Bandit, EarlyTerm, Pop };

std::string name_of(Kind kind) {
  constexpr const char* kNames[] = {"default", "bandit", "earlyterm", "pop"};
  return kNames[static_cast<int>(kind)];
}

class AllPoliciesTest : public ::testing::TestWithParam<Kind> {};

TEST_P(AllPoliciesTest, ReachesTargetOnReachableCifarTrace) {
  workload::CifarWorkloadModel model;
  const auto trace = reachable_trace(model, 60, 101);
  RunnerOptions options;
  options.machines = 4;
  options.max_experiment_time = SimTime::hours(96);
  const auto result = run_experiment(trace, *make_standard_policy(name_of(GetParam()), 101),
                                     options);
  EXPECT_TRUE(result.reached_target) << name_of(GetParam());
  EXPECT_GE(result.best_perf, trace.target_performance);
}

TEST_P(AllPoliciesTest, ReplayAndClusterAgreeWithin15Percent) {
  // The paper validates its simulator at max 13% error vs the live system
  // (Fig. 12a); our idealized replay vs high-fidelity cluster mirror that.
  workload::CifarWorkloadModel model;
  const auto trace = reachable_trace(model, 50, 202);
  RunnerOptions options;
  options.machines = 4;
  options.max_experiment_time = SimTime::hours(96);

  options.substrate = Substrate::TraceReplay;
  const auto replay =
      run_experiment(trace, *make_standard_policy(name_of(GetParam()), 202), options);
  options.substrate = Substrate::Cluster;
  const auto cluster =
      run_experiment(trace, *make_standard_policy(name_of(GetParam()), 202), options);

  ASSERT_TRUE(replay.reached_target);
  ASSERT_TRUE(cluster.reached_target);
  const double error = std::fabs(cluster.time_to_target.to_seconds() -
                                 replay.time_to_target.to_seconds()) /
                       cluster.time_to_target.to_seconds();
  EXPECT_LT(error, 0.15) << name_of(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllPoliciesTest,
                         ::testing::Values(Kind::Default, Kind::Bandit, Kind::EarlyTerm,
                                           Kind::Pop),
                         [](const auto& info) { return name_of(info.param); });

TEST(SchedulingComparisonTest, PopBeatsDefaultOnAverageCifar) {
  workload::CifarWorkloadModel model;
  double pop_total = 0.0, default_total = 0.0;
  constexpr int kRepeats = 3;
  for (int r = 0; r < kRepeats; ++r) {
    const auto trace = reachable_trace(model, 60, 300 + 10 * r);
    RunnerOptions options;
    options.machines = 4;
    options.max_experiment_time = SimTime::hours(96);
    const auto pop = run_experiment(trace, *make_standard_policy("pop", r), options);
    const auto def = run_experiment(trace, *make_standard_policy("default", r), options);
    ASSERT_TRUE(pop.reached_target);
    ASSERT_TRUE(def.reached_target);
    pop_total += pop.time_to_target.to_seconds();
    default_total += def.time_to_target.to_seconds();
  }
  EXPECT_LT(pop_total, default_total);
}

TEST(SchedulingComparisonTest, PopBeatsBaselinesOnAverageLunar) {
  workload::LunarWorkloadModel model;
  double pop_total = 0.0, bandit_total = 0.0, et_total = 0.0;
  constexpr int kRepeats = 3;
  for (int r = 0; r < kRepeats; ++r) {
    const auto trace = reachable_trace(model, 60, 400 + 10 * r);
    RunnerOptions options;
    options.machines = 15;
    options.max_experiment_time = SimTime::hours(96);
    pop_total += run_experiment(trace, *make_standard_policy("pop", r), options)
                     .time_to_target.to_seconds();
    bandit_total += run_experiment(trace, *make_standard_policy("bandit", r), options)
                        .time_to_target.to_seconds();
    et_total += run_experiment(trace, *make_standard_policy("earlyterm", r), options)
                    .time_to_target.to_seconds();
  }
  EXPECT_LT(pop_total, bandit_total);
  EXPECT_LT(pop_total, et_total);
}

TEST(SchedulingComparisonTest, PopTerminatesNonLearnersAggressively) {
  workload::CifarWorkloadModel model;
  const auto trace = reachable_trace(model, 60, 500);
  RunnerOptions options;
  options.machines = 4;
  options.max_experiment_time = SimTime::hours(96);
  options.stop_on_target = false;
  const auto pop = run_experiment(trace, *make_standard_policy("pop", 1), options);
  const auto def = run_experiment(trace, *make_standard_policy("default", 1), options);

  EXPECT_GT(pop.terminations, trace.jobs.size() / 3);
  EXPECT_EQ(def.terminations, 0u);
  // POP spends far less machine time to cover the same configuration set.
  EXPECT_LT(pop.total_machine_time.to_seconds(),
            0.5 * def.total_machine_time.to_seconds());
}

TEST(SchedulingComparisonTest, MoreMachinesNeverHurtPop) {
  workload::CifarWorkloadModel model;
  const auto trace = reachable_trace(model, 60, 600);
  RunnerOptions options;
  options.max_experiment_time = SimTime::hours(96);
  options.machines = 2;
  const auto small = run_experiment(trace, *make_standard_policy("pop", 2), options);
  options.machines = 10;
  const auto big = run_experiment(trace, *make_standard_policy("pop", 2), options);
  ASSERT_TRUE(small.reached_target);
  ASSERT_TRUE(big.reached_target);
  // Allow small scheduling noise but the trend must hold.
  EXPECT_LE(big.time_to_target.to_seconds(), small.time_to_target.to_seconds() * 1.1);
}

TEST(TraceFromGeneratorTest, BuildsRunnableTraceWithFeedback) {
  workload::CifarWorkloadModel model;
  const auto generator = make_adaptive_generator(model.space(), 7, /*warmup=*/5,
                                                 /*exploit_prob=*/0.8);
  const auto trace = trace_from_generator(model, *generator, 30, 9, /*report_feedback=*/true);
  EXPECT_EQ(trace.jobs.size(), 30u);
  EXPECT_EQ(trace.workload_name, "cifar10");
  for (const auto& job : trace.jobs) {
    EXPECT_EQ(job.curve.perf.size(), model.max_epochs());
  }
  // An adaptive generator with feedback should concentrate later configs:
  // the mean quality of the last 10 exceeds the first 10 (usually; we just
  // check it produced valid, distinct configs here to avoid flakiness).
  EXPECT_NE(trace.jobs.front().config.stable_hash(), trace.jobs.back().config.stable_hash());
}

TEST(AdaptiveSearchTest, FeedbackImprovesPopulationQuality) {
  // Across rounds, the adaptive generator should raise the population's
  // mean final accuracy relative to pure random search.
  workload::CifarWorkloadModel model;
  const auto adaptive = make_adaptive_generator(model.space(), 21, /*warmup=*/20,
                                                /*exploit_prob=*/0.9,
                                                /*perturb_scale=*/0.05);
  const auto random = make_random_generator(model.space(), 21);

  double adaptive_mean = 0.0, random_mean = 0.0;
  constexpr int kJobs = 150;
  for (int i = 0; i < kJobs; ++i) {
    {
      auto [id, config] = adaptive->create_job();
      const auto curve = model.realize(config, 1);
      adaptive->report_final_performance(id, curve.final_perf());
      adaptive_mean += curve.final_perf();
    }
    {
      auto [id, config] = random->create_job();
      random_mean += model.realize(config, 1).final_perf();
    }
  }
  EXPECT_GT(adaptive_mean / kJobs, random_mean / kJobs);
}

/// The typed event stream, the headline results and the per-job stats of one
/// run, as one comparable string.
std::string journal(const ExperimentResult& result, const obs::RecordingSink& sink) {
  std::ostringstream out;
  for (const auto& event : sink.events) out << timeline_row(event) << '\n';
  out << result.reached_target << ' ' << result.time_to_target.to_seconds() << ' '
      << result.winning_job << ' ' << result.best_perf << ' ' << result.total_time.to_seconds()
      << ' ' << result.total_machine_time.to_seconds() << ' ' << result.suspends << ' '
      << result.terminations << ' ' << result.jobs_started << '\n';
  for (const auto& js : result.job_stats) {
    out << js.job_id << ' ' << js.epochs_completed << ' ' << js.times_suspended << ' '
        << js.execution_time.to_seconds() << ' ' << js.best_perf << '\n';
  }
  return out.str();
}

TEST(RunnerOptionsTest, CatalogReachesTheClusterSubstrate) {
  // RunnerOptions is a ClusterOptions, so every cluster field — the node
  // catalog included — reaches the substrate without a field-by-field copy.
  workload::CifarWorkloadModel model;
  const auto trace = reachable_trace(model, 30, 808);
  RunnerOptions options;
  options.substrate = Substrate::Cluster;
  options.machines = 4;
  options.max_experiment_time = SimTime::hours(96);
  options.catalog.add({"standard", 2, 1.0, 1.0, false});
  options.catalog.add({"fast", 2, 2.0, 2.0, false});

  // Run through the runner, or straight on the cluster substrate.
  const auto run = [&](RunnerOptions run_options, bool direct) {
    obs::RecordingSink sink;
    run_options.obs.sink = &sink;
    const auto policy = make_standard_policy("pop", 5);
    const auto result = direct ? cluster::run_cluster_experiment(trace, *policy, run_options)
                               : run_experiment(trace, *policy, run_options);
    return journal(result, sink);
  };
  const auto with_catalog = run(options, /*direct=*/false);
  EXPECT_EQ(with_catalog, run(options, /*direct=*/true));
  options.catalog = {};
  EXPECT_NE(with_catalog, run(options, /*direct=*/false));
}

TEST(OverheadAccountingTest, SuspendSamplesMatchSuspendCount) {
  workload::LunarWorkloadModel model;
  const auto trace = reachable_trace(model, 40, 700);
  RunnerOptions options;
  options.substrate = Substrate::Cluster;
  options.machines = 8;
  options.overheads = cluster::lunar_criu_overhead_model();
  options.max_experiment_time = SimTime::hours(96);
  options.stop_on_target = false;
  const auto result = run_experiment(trace, *make_standard_policy("pop", 3), options);
  EXPECT_EQ(result.suspends, result.suspend_samples.size());
  for (const auto& s : result.suspend_samples) {
    EXPECT_LE(s.latency.to_seconds(), 22.36);  // Fig. 10 bound
    EXPECT_LE(s.snapshot_bytes, 43.75e6);
  }
}

}  // namespace
}  // namespace hyperdrive::core
