// Calibration and determinism tests for the synthetic workload models — the
// substitution layer standing in for live CIFAR-10 / LunarLander training.
// The population assertions pin the statistics the paper reports (Fig. 1,
// Fig. 2a, Fig. 8) so future tuning cannot silently drift away from them.
#include "workload/workload_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "workload/cifar_model.hpp"
#include "workload/lunar_model.hpp"
#include "workload/trace.hpp"

namespace hyperdrive::workload {
namespace {

TEST(GroundTruthCurveTest, Helpers) {
  GroundTruthCurve c;
  c.perf = {0.1, 0.3, 0.5, 0.4};
  c.raw_min = -500.0;
  c.raw_max = 300.0;
  EXPECT_DOUBLE_EQ(c.final_perf(), 0.4);
  EXPECT_DOUBLE_EQ(c.best_perf(), 0.5);
  EXPECT_EQ(c.max_epochs(), 4u);
  EXPECT_EQ(c.first_epoch_reaching(0.45), 3u);
  EXPECT_EQ(c.first_epoch_reaching(0.9), 0u);
  EXPECT_DOUBLE_EQ(c.denormalize(0.5), -100.0);
}

TEST(GroundTruthCurveTest, EmptyCurveIsSafe) {
  GroundTruthCurve c;
  EXPECT_DOUBLE_EQ(c.final_perf(), 0.0);
  EXPECT_DOUBLE_EQ(c.best_perf(), 0.0);
  EXPECT_EQ(c.first_epoch_reaching(0.1), 0u);
}

class CifarPopulationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    model_ = new CifarWorkloadModel();
    trace_ = new Trace(generate_trace(*model_, 1500, 20260705));
  }
  static void TearDownTestSuite() {
    delete trace_;
    delete model_;
    trace_ = nullptr;
    model_ = nullptr;
  }
  static CifarWorkloadModel* model_;
  static Trace* trace_;
};
CifarWorkloadModel* CifarPopulationTest::model_ = nullptr;
Trace* CifarPopulationTest::trace_ = nullptr;

TEST_F(CifarPopulationTest, MetadataMatchesPaper) {
  EXPECT_EQ(model_->name(), "cifar10");
  EXPECT_EQ(model_->max_epochs(), 120u);
  EXPECT_DOUBLE_EQ(model_->target_performance(), 0.77);
  EXPECT_DOUBLE_EQ(model_->kill_threshold(), 0.15);
  EXPECT_EQ(model_->evaluation_boundary(), 10u);
  EXPECT_EQ(model_->space().size(), 14u);  // 14 hyperparameters (§6.1)
}

TEST_F(CifarPopulationTest, NonLearnerFractionNearPaper) {
  // Paper: 32% of configurations at or below random accuracy (Fig. 2a).
  std::size_t non_learners = 0;
  for (const auto& job : trace_->jobs) {
    if (job.curve.final_perf() <= 0.105) ++non_learners;
  }
  const double frac = static_cast<double>(non_learners) / trace_->jobs.size();
  EXPECT_GT(frac, 0.18);
  EXPECT_LT(frac, 0.42);
}

TEST_F(CifarPopulationTest, GoodConfigurationsAreSparse) {
  // Fig. 1: only 3 of 50 exceed 75%; the winners' tail must be thin but
  // non-empty so 100-config experiments usually contain a target-reacher.
  std::size_t over75 = 0, over77 = 0;
  for (const auto& job : trace_->jobs) {
    if (job.curve.best_perf() > 0.75) ++over75;
    if (job.curve.best_perf() >= 0.77) ++over77;
  }
  const double frac75 = static_cast<double>(over75) / trace_->jobs.size();
  const double frac77 = static_cast<double>(over77) / trace_->jobs.size();
  EXPECT_GT(frac75, 0.01);
  EXPECT_LT(frac75, 0.12);
  EXPECT_GT(frac77, 0.005);
}

TEST_F(CifarPopulationTest, MajorityStaysLow) {
  std::size_t under40 = 0;
  for (const auto& job : trace_->jobs) {
    if (job.curve.final_perf() < 0.40) ++under40;
  }
  EXPECT_GT(static_cast<double>(under40) / trace_->jobs.size(), 0.60);
}

TEST_F(CifarPopulationTest, BestConfigsPeakNearPaperCeiling) {
  double best = 0.0;
  for (const auto& job : trace_->jobs) best = std::max(best, job.curve.best_perf());
  EXPECT_GT(best, 0.77);
  EXPECT_LT(best, 0.88);  // no super-human CIFAR models from this CNN
}

TEST_F(CifarPopulationTest, EpochDurationsAboutAMinute) {
  double total = 0.0;
  for (const auto& job : trace_->jobs) total += job.curve.epoch_duration.to_seconds();
  const double mean_s = total / trace_->jobs.size();
  EXPECT_GT(mean_s, 40.0);
  EXPECT_LT(mean_s, 100.0);
}

TEST_F(CifarPopulationTest, CurvesStayInValidAccuracyRange) {
  for (const auto& job : trace_->jobs) {
    for (double y : job.curve.perf) {
      EXPECT_GE(y, 0.0);
      EXPECT_LE(y, 1.0);
    }
  }
}

TEST_F(CifarPopulationTest, LearnersEscapeKillThresholdByFirstBoundary) {
  // The domain-knowledge kill rule (15% at epoch 10) must not cull winners.
  for (const auto& job : trace_->jobs) {
    if (job.curve.best_perf() >= 0.75) {
      EXPECT_GT(job.curve.perf.at(9), 0.15)
          << "winner killed at first boundary, job " << job.job_id;
    }
  }
}

TEST_F(CifarPopulationTest, OvertakesExist) {
  // Fig. 2b: some pair (A, B) where A leads at epoch 20 but B wins finally.
  std::size_t overtakes = 0;
  const auto& jobs = trace_->jobs;
  for (std::size_t i = 0; i + 1 < jobs.size() && overtakes == 0; ++i) {
    for (std::size_t j = i + 1; j < jobs.size(); ++j) {
      const auto& a = jobs[i].curve;
      const auto& b = jobs[j].curve;
      if (a.final_perf() < 0.4 || b.final_perf() < 0.4) continue;
      const bool a_leads_early = a.perf.at(19) > b.perf.at(19) + 0.02;
      const bool b_wins = b.final_perf() > a.final_perf() + 0.02;
      if (a_leads_early && b_wins) {
        ++overtakes;
        break;
      }
    }
  }
  EXPECT_GT(overtakes, 0u);
}

TEST(CifarDeterminismTest, SameConfigSameSeedSameCurve) {
  CifarWorkloadModel model;
  util::Rng rng(5);
  const auto config = model.space().sample(rng);
  const auto a = model.realize(config, 7);
  const auto b = model.realize(config, 7);
  EXPECT_EQ(a.perf, b.perf);
  EXPECT_EQ(a.epoch_duration, b.epoch_duration);
}

TEST(CifarDeterminismTest, ExperimentSeedChangesNoiseNotQuality) {
  CifarWorkloadModel model;
  util::Rng rng(6);
  // Find a learning configuration.
  Configuration config;
  for (int i = 0; i < 200; ++i) {
    config = model.space().sample(rng);
    if (model.quality(config).learns) break;
  }
  ASSERT_TRUE(model.quality(config).learns);
  const auto a = model.realize(config, 1);
  const auto b = model.realize(config, 2);
  EXPECT_NE(a.perf, b.perf);  // different noise
  EXPECT_NEAR(a.final_perf(), b.final_perf(), 0.08);  // same intrinsic quality
  EXPECT_EQ(a.epoch_duration, b.epoch_duration);      // duration is intrinsic
}

TEST(CifarDeterminismTest, QualityIsPureFunctionOfConfig) {
  CifarWorkloadModel model;
  util::Rng rng(8);
  const auto config = model.space().sample(rng);
  const auto q1 = model.quality(config);
  const auto q2 = model.quality(config);
  EXPECT_EQ(q1.final_perf, q2.final_perf);
  EXPECT_EQ(q1.learns, q2.learns);
  EXPECT_EQ(q1.speed, q2.speed);
}

class LunarPopulationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    model_ = new LunarWorkloadModel();
    trace_ = new Trace(generate_trace(*model_, 1500, 42424242));
  }
  static void TearDownTestSuite() {
    delete trace_;
    delete model_;
    trace_ = nullptr;
    model_ = nullptr;
  }
  static LunarWorkloadModel* model_;
  static Trace* trace_;
};
LunarWorkloadModel* LunarPopulationTest::model_ = nullptr;
Trace* LunarPopulationTest::trace_ = nullptr;

TEST_F(LunarPopulationTest, MetadataMatchesPaper) {
  EXPECT_EQ(model_->name(), "lunarlander");
  EXPECT_EQ(model_->space().size(), 11u);  // 11 hyperparameters (§6.1)
  // Eq. 4 normalization with rmin=-500, rmax=300.
  EXPECT_DOUBLE_EQ(model_->normalize_reward(-500.0), 0.0);
  EXPECT_DOUBLE_EQ(model_->normalize_reward(300.0), 1.0);
  EXPECT_DOUBLE_EQ(model_->target_performance(), 0.875);  // solved at 200
  EXPECT_DOUBLE_EQ(model_->kill_threshold(), 0.5);        // crash at -100
  EXPECT_EQ(model_->evaluation_boundary(), 10u);  // 2000 trials / 200 per epoch
}

TEST_F(LunarPopulationTest, MajorityNonLearning) {
  // Fig. 8: over 50% of jobs are non-learning (including learning-crashes).
  std::size_t non_learning = 0;
  for (const auto& job : trace_->jobs) {
    if (job.curve.final_perf() <= model_->kill_threshold() + 0.01) ++non_learning;
  }
  EXPECT_GT(static_cast<double>(non_learning) / trace_->jobs.size(), 0.50);
}

TEST_F(LunarPopulationTest, LearningCrashesExist) {
  // Some configurations climb well above the crash range and then fall back
  // into it for good.
  std::size_t crashes = 0;
  for (const auto& job : trace_->jobs) {
    const double best_raw = job.curve.denormalize(job.curve.best_perf());
    const double final_raw = job.curve.denormalize(job.curve.final_perf());
    if (best_raw > -20.0 && final_raw <= -100.0) ++crashes;
  }
  const double frac = static_cast<double>(crashes) / trace_->jobs.size();
  EXPECT_GT(frac, 0.02);
  EXPECT_LT(frac, 0.30);
}

TEST_F(LunarPopulationTest, SolversAreRareButPresent) {
  std::size_t solved = 0;
  for (const auto& job : trace_->jobs) {
    if (job.curve.first_epoch_reaching(model_->target_performance()) != 0) ++solved;
  }
  const double frac = static_cast<double>(solved) / trace_->jobs.size();
  EXPECT_GT(frac, 0.01);
  EXPECT_LT(frac, 0.12);
}

TEST_F(LunarPopulationTest, RewardsWithinEnvironmentBounds) {
  for (const auto& job : trace_->jobs) {
    for (double y : job.curve.perf) {
      const double raw = job.curve.denormalize(y);
      EXPECT_GE(raw, -500.0);
      EXPECT_LE(raw, 300.0);
    }
  }
}

TEST_F(LunarPopulationTest, LearnersEscapeCrashRangeByFirstBoundary) {
  for (const auto& job : trace_->jobs) {
    if (job.curve.first_epoch_reaching(model_->target_performance()) != 0) {
      EXPECT_GT(job.curve.perf.at(9), model_->kill_threshold())
          << "solver still in crash range at the kill boundary, job " << job.job_id;
    }
  }
}

TEST_F(LunarPopulationTest, CrashedJobsStayDown) {
  // Once a crash happens the reward must remain at or below the crash range
  // (Fig. 8: "falls and remains at or below a non-learning value").
  for (const auto& job : trace_->jobs) {
    const auto& perf = job.curve.perf;
    const double final_raw = job.curve.denormalize(job.curve.final_perf());
    const double best_raw = job.curve.denormalize(job.curve.best_perf());
    if (best_raw > -20.0 && final_raw <= -100.0) {
      // Find the last epoch above the crash range; everything after must be
      // low.
      std::size_t last_high = 0;
      for (std::size_t e = 0; e < perf.size(); ++e) {
        if (job.curve.denormalize(perf[e]) > -80.0) last_high = e;
      }
      for (std::size_t e = last_high + 3; e < perf.size(); ++e) {
        EXPECT_LE(job.curve.denormalize(perf[e]), -75.0);
      }
    }
  }
}

TEST(LunarDeterminismTest, RealizationDeterministic) {
  LunarWorkloadModel model;
  util::Rng rng(9);
  const auto config = model.space().sample(rng);
  EXPECT_EQ(model.realize(config, 3).perf, model.realize(config, 3).perf);
}

}  // namespace
}  // namespace hyperdrive::workload

#include "workload/imagenet_model.hpp"

namespace hyperdrive::workload {
namespace {

TEST(ImagenetModelTest, MetadataAndScale) {
  ImagenetWorkloadModel model;
  EXPECT_EQ(model.name(), "imagenet22k");
  EXPECT_EQ(model.space().size(), 9u);
  EXPECT_DOUBLE_EQ(model.target_performance(), 0.35);
  EXPECT_LT(model.kill_threshold(), 0.05);
}

TEST(ImagenetModelTest, FullRunsTakeDays) {
  // The intro's framing: a full training run is on the order of 10 days.
  ImagenetWorkloadModel model;
  util::Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    const auto curve = model.realize(model.space().sample(rng), 1);
    const double days = curve.epoch_duration.to_hours() *
                        static_cast<double>(curve.max_epochs()) / 24.0;
    EXPECT_GT(days, 5.0);
    EXPECT_LT(days, 25.0);  // poorly-sharded configs pay for it
  }
}

TEST(ImagenetModelTest, AsyncDivergenceRule) {
  ImagenetWorkloadModel model;
  util::Rng rng(2);
  auto config = model.space().sample(rng);
  config.set("lr", 0.8);
  config.set("staleness_bound", std::int64_t{32});
  EXPECT_FALSE(model.quality(config).learns);
  config.set("lr", 0.02);
  config.set("staleness_bound", std::int64_t{2});
  EXPECT_TRUE(model.quality(config).learns);
}

TEST(ImagenetModelTest, DeterministicAndBounded) {
  ImagenetWorkloadModel model;
  util::Rng rng(3);
  const auto config = model.space().sample(rng);
  const auto a = model.realize(config, 4);
  EXPECT_EQ(a.perf, model.realize(config, 4).perf);
  for (double y : a.perf) {
    EXPECT_GE(y, 0.0);
    EXPECT_LE(y, 0.45);  // era-appropriate top-1 ceiling
  }
}

TEST(ImagenetModelTest, TargetReachableButSparse) {
  ImagenetWorkloadModel model;
  const auto trace = generate_trace(model, 500, 9);
  std::size_t winners = 0;
  for (const auto& job : trace.jobs) {
    if (job.curve.first_epoch_reaching(model.target_performance()) != 0) ++winners;
  }
  EXPECT_GT(winners, 0u);
  EXPECT_LT(winners, 100u);
}

}  // namespace
}  // namespace hyperdrive::workload
