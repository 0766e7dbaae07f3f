// Tests for the extension features: HyperBand policy, TPE generator, POP
// owner rules & dynamic targets, secondary-metric plumbing, and user-defined
// global stop criteria (§9).
#include <gtest/gtest.h>

#include <cmath>

#include "core/experiment_runner.hpp"
#include "core/policies/hyperband_policy.hpp"
#include "core/policies/pop_policy.hpp"
#include "core/policy_registry.hpp"
#include "sim/trace_replay.hpp"
#include "workload/cifar_model.hpp"
#include "workload/ptb_lstm_model.hpp"

namespace hyperdrive::core {
namespace {

using util::SimTime;

workload::Trace trace_from_curves(std::vector<std::vector<double>> curves, double target,
                                  std::size_t boundary) {
  workload::Trace trace;
  trace.workload_name = "handmade";
  trace.target_performance = target;
  trace.kill_threshold = 0.0;
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

std::vector<double> saturating(double from, double to, std::size_t n, double k) {
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    ys[i] = from + (to - from) * (1.0 - std::exp(-k * static_cast<double>(i + 1)));
  }
  return ys;
}

// ---------------------------------------------------------------- Hyperband

TEST(HyperbandPolicyTest, ValidatesConfig) {
  HyperbandConfig bad;
  bad.eta = 1.0;
  EXPECT_THROW({ HyperbandPolicy rejected(bad); }, std::invalid_argument);
  bad.eta = 3.0;
  bad.num_brackets = 0;
  EXPECT_THROW({ HyperbandPolicy rejected(bad); }, std::invalid_argument);
}

TEST(HyperbandPolicyTest, EliminatesBottomOfRung) {
  // Ten flat jobs with distinct levels, strongest first (the asynchronous
  // promotion rule compares against scores seen so far, so late weak
  // arrivals are the ones eliminated). Rungs at 4, 8 (eta = 2).
  std::vector<std::vector<double>> curves;
  for (int i = 0; i < 10; ++i) {
    curves.push_back(std::vector<double>(16, 0.6 - 0.05 * i));
  }
  auto trace = trace_from_curves(std::move(curves), 0.99, 4);
  HyperbandConfig config;
  config.min_rung = 4;
  config.eta = 2.0;
  HyperbandPolicy policy(config);
  sim::ReplayOptions options;
  options.machines = 10;  // everyone reaches rung 4 together-ish
  const auto result = sim::replay_experiment(trace, policy, options);
  EXPECT_GT(policy.eliminations(), 2u);
  // The best job (id 1, perf 0.6) always survives to completion.
  for (const auto& js : result.job_stats) {
    if (js.job_id == 1) {
      EXPECT_EQ(js.final_status, JobStatus::Completed);
    }
  }
}

TEST(HyperbandPolicyTest, TopJobNeverEliminated) {
  std::vector<std::vector<double>> curves;
  for (int i = 0; i < 6; ++i) curves.push_back(saturating(0.1, 0.2 + 0.1 * i, 27, 0.3));
  auto trace = trace_from_curves(std::move(curves), 0.99, 3);
  HyperbandConfig config;
  config.min_rung = 3;
  config.eta = 3.0;
  HyperbandPolicy policy(config);
  sim::ReplayOptions options;
  options.machines = 6;
  const auto result = sim::replay_experiment(trace, policy, options);
  for (const auto& js : result.job_stats) {
    if (js.job_id == 6) {
      EXPECT_EQ(js.final_status, JobStatus::Completed);
    }
  }
}

TEST(HyperbandPolicyTest, BracketsCheckAtDifferentRungs) {
  // eta = 3, min_rung = 2, two brackets: bracket 0 (even job ids) has rungs
  // 2, 6, 18, ...; bracket 1 (odd ids) starts at rung 6. Strong and weak
  // jobs are paired within each bracket so eliminations are unambiguous.
  HyperbandConfig config;
  config.min_rung = 2;
  config.eta = 3.0;
  config.num_brackets = 2;
  config.min_rung_population = 1;
  HyperbandPolicy policy(config);

  auto trace = trace_from_curves(
      {std::vector<double>(8, 0.5),   // id 1, bracket 1, strong
       std::vector<double>(8, 0.6),   // id 2, bracket 0, strong
       std::vector<double>(8, 0.12),  // id 3, bracket 1, weak
       std::vector<double>(8, 0.1)},  // id 4, bracket 0, weak
      0.99, 2);
  sim::ReplayOptions options;
  options.machines = 4;
  const auto result = sim::replay_experiment(trace, policy, options);
  for (const auto& js : result.job_stats) {
    if (js.job_id == 4) {
      // Bracket 0's first rung is epoch 2: the weak even job dies there.
      EXPECT_EQ(js.final_status, JobStatus::Terminated);
      EXPECT_EQ(js.epochs_completed, 2u);
    } else if (js.job_id == 3) {
      // Bracket 1 does not check before epoch 6: the weak odd job survives
      // longer, then dies at its bracket's first rung.
      EXPECT_EQ(js.final_status, JobStatus::Terminated);
      EXPECT_EQ(js.epochs_completed, 6u);
    } else {
      EXPECT_EQ(js.final_status, JobStatus::Completed);
    }
  }
}

// ---------------------------------------------------------------------- TPE

TEST(TpeGeneratorTest, WarmupIsRandomThenAdapts) {
  workload::CifarWorkloadModel model;
  const auto gen = make_tpe_generator(model.space(), 1, /*warmup=*/10, 0.3, 16);
  EXPECT_EQ(gen->name(), "tpe");
  // Feed it synthetic feedback: quality is the model's own score.
  for (int i = 0; i < 60; ++i) {
    auto [id, config] = gen->create_job();
    gen->report_final_performance(id, model.quality(config).final_perf);
  }
  // After adaptation, new proposals should be better than random on average.
  double tpe_mean = 0.0;
  constexpr int kProbe = 40;
  for (int i = 0; i < kProbe; ++i) {
    auto [id, config] = gen->create_job();
    tpe_mean += model.quality(config).final_perf;
    gen->report_final_performance(id, model.quality(config).final_perf);
  }
  tpe_mean /= kProbe;

  const auto random_gen = make_random_generator(model.space(), 1);
  double random_mean = 0.0;
  for (int i = 0; i < kProbe; ++i) {
    random_mean += model.quality(random_gen->create_job().second).final_perf;
  }
  random_mean /= kProbe;
  EXPECT_GT(tpe_mean, random_mean);
}

TEST(TpeGeneratorTest, ProposalsStayInDomain) {
  workload::CifarWorkloadModel model;
  const auto gen = make_tpe_generator(model.space(), 2, /*warmup=*/5, 0.25, 8);
  util::Rng rng(3);
  for (int i = 0; i < 80; ++i) {
    auto [id, config] = gen->create_job();
    for (const auto& [name, domain] : model.space().dims()) {
      if (const auto* c = std::get_if<workload::ContinuousDomain>(&domain)) {
        EXPECT_GE(config.get_double(name), c->lo);
        EXPECT_LE(config.get_double(name), c->hi);
      } else if (const auto* d = std::get_if<workload::IntegerDomain>(&domain)) {
        EXPECT_GE(config.get_int(name), d->lo);
        EXPECT_LE(config.get_int(name), d->hi);
      }
    }
    gen->report_final_performance(id, rng.uniform());
  }
}

TEST(TpeGeneratorTest, HandlesCategoricalDimensions) {
  workload::HyperparameterSpace space;
  space.add("x", workload::ContinuousDomain{0.0, 1.0})
      .add("opt", workload::CategoricalDomain{{"good", "bad"}});
  const auto gen = make_tpe_generator(space, 4, /*warmup=*/10, 0.3, 16);
  // Reward "good" heavily.
  for (int i = 0; i < 80; ++i) {
    auto [id, config] = gen->create_job();
    const double perf = config.get_categorical("opt") == "good" ? 0.9 : 0.1;
    gen->report_final_performance(id, perf);
  }
  int good = 0;
  for (int i = 0; i < 40; ++i) {
    auto [id, config] = gen->create_job();
    if (config.get_categorical("opt") == "good") ++good;
    gen->report_final_performance(id, config.get_categorical("opt") == "good" ? 0.9 : 0.1);
  }
  EXPECT_GT(good, 24);  // clearly above the 50% of uniform sampling
}

// --------------------------------------------------- owner rules & targets

TEST(PopOwnerRuleTest, RuleOverridesEverything) {
  auto trace = trace_from_curves({saturating(0.3, 0.9, 24, 0.2)}, 0.99, 4);
  PopConfig config;
  config.tmax = SimTime::hours(24);
  config.predictor = make_default_predictor(1);
  config.owner_rule = [](const JobEvent& event) -> std::optional<JobDecision> {
    if (event.epoch == 7) return JobDecision::Terminate;  // not even a boundary
    return std::nullopt;
  };
  PopPolicy policy(config);
  sim::ReplayOptions options;
  options.machines = 1;
  const auto result = sim::replay_experiment(trace, policy, options);
  ASSERT_EQ(result.job_stats.size(), 1u);
  EXPECT_EQ(result.job_stats[0].final_status, JobStatus::Terminated);
  EXPECT_EQ(result.job_stats[0].epochs_completed, 7u);
}

TEST(PopOwnerRuleTest, NulloptDefersToPop) {
  auto trace = trace_from_curves({saturating(0.3, 0.9, 24, 0.2)}, 0.85, 4);
  PopConfig config;
  config.tmax = SimTime::hours(24);
  config.predictor = make_default_predictor(1);
  int consulted = 0;
  config.owner_rule = [&consulted](const JobEvent&) -> std::optional<JobDecision> {
    ++consulted;
    return std::nullopt;
  };
  PopPolicy policy(config);
  sim::ReplayOptions options;
  options.machines = 1;
  const auto result = sim::replay_experiment(trace, policy, options);
  EXPECT_TRUE(result.reached_target);
  EXPECT_GT(consulted, 0);
}

TEST(PopDynamicTargetTest, TargetRisesWhenReached) {
  // Best-within-budget mode: the curve blows past the initial target; the
  // dynamic target should ratchet up behind it.
  auto trace = trace_from_curves({saturating(0.2, 0.9, 40, 0.15)}, /*target=*/0.4, 4);
  PopConfig config;
  config.tmax = SimTime::hours(24);
  config.predictor = make_default_predictor(2);
  config.dynamic_target_increment = 0.05;
  PopPolicy policy(config);
  sim::ReplayOptions options;
  options.machines = 1;
  options.stop_on_target = false;
  (void)sim::replay_experiment(trace, policy, options);
  EXPECT_GT(policy.target_raises(), 2u);
  EXPECT_GT(policy.current_target(), 0.85);  // chased the curve up
}

// -------------------------------------------- secondary metrics & criteria

TEST(SecondaryMetricTest, DeliveredThroughBothSubstrates) {
  workload::PtbLstmWorkloadModel model;
  const auto trace = workload::generate_trace(model, 4, 11);

  class Capture final : public DefaultPolicy {
   public:
    // Counted on ApplicationStat: it fires for every delivered stat, while
    // OnIterationFinish is skipped for a job's final epoch on the cluster
    // substrate (the job completes before the decision would matter).
    void on_application_stat(SchedulerOps& ops, const JobEvent& event) override {
      if (!std::isnan(event.secondary)) ++with_secondary;
      DefaultPolicy::on_application_stat(ops, event);
    }
    int with_secondary = 0;
  };

  {
    Capture policy;
    sim::ReplayOptions options;
    options.machines = 2;
    options.stop_on_target = false;
    (void)sim::replay_experiment(trace, policy, options);
    EXPECT_EQ(policy.with_secondary, static_cast<int>(4 * model.max_epochs()));
  }
  {
    Capture policy;
    cluster::ClusterOptions options;
    options.machines = 2;
    options.stop_on_target = false;
    options.overheads = cluster::zero_overhead_model();
    options.epoch_jitter_sigma = 0.0;
    (void)cluster::run_cluster_experiment(trace, policy, options);
    EXPECT_EQ(policy.with_secondary, static_cast<int>(4 * model.max_epochs()));
  }
}

TEST(SecondaryMetricTest, CifarEventsHaveNoSecondary) {
  workload::CifarWorkloadModel model;
  const auto trace = workload::generate_trace(model, 2, 12);

  class Capture final : public DefaultPolicy {
   public:
    JobDecision on_iteration_finish(SchedulerOps& ops, const JobEvent& event) override {
      EXPECT_TRUE(std::isnan(event.secondary));
      return DefaultPolicy::on_iteration_finish(ops, event);
    }
  };
  Capture policy;
  sim::ReplayOptions options;
  options.machines = 2;
  options.stop_on_target = false;
  (void)sim::replay_experiment(trace, policy, options);
}

TEST(GlobalStopCriterionTest, ReplacesTargetCheck) {
  // The curve reaches 0.9 but the criterion wants epoch >= 20 too.
  auto trace = trace_from_curves({saturating(0.3, 0.95, 30, 0.3)}, /*target=*/0.5, 4);
  DefaultPolicy policy;
  sim::ReplayOptions options;
  options.machines = 1;
  options.stop_criterion = [](const JobEvent& event) {
    return event.perf >= 0.9 && event.epoch >= 20;
  };
  const auto result = sim::replay_experiment(trace, policy, options);
  ASSERT_TRUE(result.reached_target);
  // Without the criterion the run would stop at ~epoch 3 (perf 0.5); the
  // custom rule defers the stop to epoch 20.
  EXPECT_EQ(result.time_to_target, SimTime::seconds(20 * 60));
}

TEST(GlobalStopCriterionTest, WorksOnClusterSubstrate) {
  workload::PtbLstmWorkloadModel model;
  auto trace = workload::generate_trace(model, 30, 21);
  const double ppl_goal = model.normalize_ppl(110.0);
  // Require the joint perplexity+sparsity goal.
  bool achievable = false;
  for (const auto& job : trace.jobs) {
    for (std::size_t e = 0; e < job.curve.perf.size(); ++e) {
      if (job.curve.perf[e] >= ppl_goal && job.curve.secondary[e] >= 0.4) {
        achievable = true;
      }
    }
  }
  if (!achievable) GTEST_SKIP() << "no joint achiever in this draw";

  DefaultPolicy policy;
  cluster::ClusterOptions options;
  options.machines = 8;
  options.overheads = cluster::zero_overhead_model();
  options.stop_criterion = [&](const JobEvent& event) {
    return event.perf >= ppl_goal && !std::isnan(event.secondary) &&
           event.secondary >= 0.4;
  };
  const auto result = cluster::run_cluster_experiment(trace, policy, options);
  EXPECT_TRUE(result.reached_target);
}

}  // namespace
}  // namespace hyperdrive::core
