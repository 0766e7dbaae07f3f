// System-wide invariants, swept over every (policy x workload x substrate)
// combination with parameterized gtest. These are the properties any
// scheduling run must satisfy regardless of policy cleverness.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/experiment_runner.hpp"
#include "core/policy_registry.hpp"
#include "workload/cifar_model.hpp"
#include "workload/lunar_model.hpp"
#include "workload/ptb_lstm_model.hpp"

namespace hyperdrive::core {
namespace {

enum class Pol { Default, Bandit, EarlyTerm, Pop, Hyperband };
enum class Wl { Cifar, Lunar, Ptb };
enum class Sub { Replay, Cluster };

using Combo = std::tuple<Pol, Wl, Sub>;

std::string policy_name(Pol pol) {
  switch (pol) {
    case Pol::Default: return "default";
    case Pol::Bandit: return "bandit";
    case Pol::EarlyTerm: return "earlyterm";
    case Pol::Pop: return "pop";
    case Pol::Hyperband: return "hyperband";
  }
  return "?";
}

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  const auto [pol, wl, sub] = info.param;
  std::string s = policy_name(pol);
  s += '_';
  switch (wl) {
    case Wl::Cifar: s += "cifar"; break;
    case Wl::Lunar: s += "lunar"; break;
    case Wl::Ptb: s += "ptb"; break;
  }
  s += '_';
  s += std::get<2>(info.param) == Sub::Replay ? "replay" : "cluster";
  return s;
}

std::unique_ptr<workload::WorkloadModel> make_model(Wl wl) {
  switch (wl) {
    case Wl::Cifar: return std::make_unique<workload::CifarWorkloadModel>();
    case Wl::Lunar: return std::make_unique<workload::LunarWorkloadModel>();
    case Wl::Ptb: return std::make_unique<workload::PtbLstmWorkloadModel>();
  }
  return nullptr;
}

ExperimentResult run_combo(const Combo& combo, const workload::Trace& trace,
                           std::uint64_t seed) {
  const auto [pol, wl, sub] = combo;
  const auto policy = make_standard_policy(policy_name(pol), seed, util::SimTime::hours(96));
  if (sub == Sub::Replay) {
    sim::ReplayOptions options;
    options.machines = 3;
    options.max_experiment_time = util::SimTime::hours(200);
    return sim::replay_experiment(trace, *policy, options);
  }
  cluster::ClusterOptions options;
  options.machines = 3;
  options.max_experiment_time = util::SimTime::hours(200);
  options.seed = seed;
  return cluster::run_cluster_experiment(trace, *policy, options);
}

class SchedulingInvariantsTest : public ::testing::TestWithParam<Combo> {};

TEST_P(SchedulingInvariantsTest, HoldOnASmallExperiment) {
  const auto [pol, wl, sub] = GetParam();
  const auto model = make_model(wl);
  const auto trace = workload::generate_trace(*model, 25, 314159);
  const auto result = run_combo(GetParam(), trace, 1);

  // 1. No machine oversubscription: busy time <= wall time x machines.
  EXPECT_LE(result.total_machine_time.to_seconds(),
            result.total_time.to_seconds() * 3.0 + 1e-6);

  // 2. Per-job sanity.
  std::size_t suspends = 0, terminated = 0, completed = 0, touched = 0;
  for (const auto& js : result.job_stats) {
    EXPECT_LE(js.epochs_completed, trace.max_epochs);
    EXPECT_GE(js.execution_time.to_seconds(), 0.0);
    EXPECT_GE(js.best_perf, 0.0);
    EXPECT_LE(js.best_perf, 1.0);
    suspends += js.times_suspended;
    if (js.final_status == JobStatus::Terminated) ++terminated;
    if (js.final_status == JobStatus::Completed) ++completed;
    if (js.epochs_completed > 0) ++touched;
    // Machine time is at least the training time implied by the epochs.
    if (js.epochs_completed > 0) {
      EXPECT_GT(js.execution_time.to_seconds(), 0.0);
    }
  }

  // 3. Counters agree with per-job stats.
  EXPECT_EQ(result.suspends, suspends);
  EXPECT_EQ(result.terminations, terminated);
  EXPECT_GE(result.jobs_started, touched);

  // 4. Target bookkeeping.
  if (result.reached_target) {
    EXPECT_GE(result.best_perf, trace.target_performance);
    EXPECT_LE(result.time_to_target.to_seconds(), result.total_time.to_seconds() + 1e-6);
    EXPECT_NE(result.winning_job, 0u);
  } else {
    // Without a target hit the experiment ran everything it would start.
    EXPECT_LT(result.best_perf, trace.target_performance);
  }

  // 5. Suspend-sample accounting (cluster only; replay has zero overhead).
  if (sub == Sub::Cluster) {
    EXPECT_EQ(result.suspend_samples.size(), result.suspends);
  } else {
    EXPECT_TRUE(result.suspend_samples.empty());
  }
}

TEST_P(SchedulingInvariantsTest, RunsAreDeterministic) {
  const auto [pol, wl, sub] = GetParam();
  const auto model = make_model(wl);
  const auto trace = workload::generate_trace(*model, 15, 2718);
  const auto a = run_combo(GetParam(), trace, 7);
  const auto b = run_combo(GetParam(), trace, 7);
  EXPECT_EQ(a.reached_target, b.reached_target);
  EXPECT_EQ(a.time_to_target.to_seconds(), b.time_to_target.to_seconds());
  EXPECT_EQ(a.total_time.to_seconds(), b.total_time.to_seconds());
  EXPECT_EQ(a.suspends, b.suspends);
  EXPECT_EQ(a.terminations, b.terminations);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, SchedulingInvariantsTest,
    ::testing::Combine(::testing::Values(Pol::Default, Pol::Bandit, Pol::EarlyTerm,
                                         Pol::Pop, Pol::Hyperband),
                       ::testing::Values(Wl::Cifar, Wl::Lunar, Wl::Ptb),
                       ::testing::Values(Sub::Replay, Sub::Cluster)),
    combo_name);

}  // namespace
}  // namespace hyperdrive::core
