// Development tool: prints population statistics of the synthetic workload
// models so their calibration constants can be checked against the paper's
// reported distributions (Fig. 1 / 2a / 8). Kept in-tree so future
// re-calibration is reproducible; the tool_calibrate ctest runs it, so it
// keeps building and running, while its numbers are read by eye.
#include <cstdio>

#include "util/stats.hpp"
#include "workload/cifar_model.hpp"
#include "workload/lunar_model.hpp"
#include "workload/trace.hpp"

using namespace hyperdrive;

int main() {
  constexpr std::size_t kConfigs = 2000;

  {
    workload::CifarWorkloadModel model;
    auto trace = workload::generate_trace(model, kConfigs, 42);
    std::vector<double> finals, bests, durations, scores;
    for (const auto& job : trace.jobs) {
      const auto q = model.quality(job.config);
      if (q.learns) scores.push_back(q.score);
    }
    std::printf("CIFAR learner score pcts: p50=%.3f p75=%.3f p90=%.3f p95=%.3f p97=%.3f p99=%.3f max=%.3f\n",
                util::percentile(scores, 50), util::percentile(scores, 75),
                util::percentile(scores, 90), util::percentile(scores, 95),
                util::percentile(scores, 97), util::percentile(scores, 99),
                util::max_of(scores));
    std::size_t non_learners = 0, over75 = 0, over77 = 0, under20 = 0, under40 = 0;
    for (const auto& job : trace.jobs) {
      finals.push_back(job.curve.final_perf());
      bests.push_back(job.curve.best_perf());
      durations.push_back(job.curve.epoch_duration.to_seconds());
      if (job.curve.final_perf() <= 0.105) ++non_learners;
      if (job.curve.best_perf() > 0.75) ++over75;
      if (job.curve.best_perf() >= 0.77) ++over77;
      if (job.curve.final_perf() < 0.20) ++under20;
      if (job.curve.final_perf() < 0.40) ++under40;
    }
    auto b = util::box_stats(finals);
    std::printf("CIFAR (n=%zu)\n", kConfigs);
    std::printf("  final acc: %s\n", util::to_string(b).c_str());
    std::printf("  non-learners (<=0.105): %.1f%% (paper ~32%%)\n",
                100.0 * static_cast<double>(non_learners) / kConfigs);
    std::printf("  under 0.20: %.1f%%  under 0.40: %.1f%%\n",
                100.0 * static_cast<double>(under20) / kConfigs,
                100.0 * static_cast<double>(under40) / kConfigs);
    std::printf("  best>0.75: %.1f%% (paper ~6%% of 50)  best>=0.77: %.1f%%\n",
                100.0 * static_cast<double>(over75) / kConfigs,
                100.0 * static_cast<double>(over77) / kConfigs);
    std::printf("  epoch duration: %s s\n", util::to_string(util::box_stats(durations)).c_str());
  }

  {
    workload::LunarWorkloadModel model;
    auto trace = workload::generate_trace(model, kConfigs, 43);
    {
      std::vector<double> scores;
      for (const auto& job : trace.jobs) {
        const auto q = model.quality(job.config);
        if (q.learns) scores.push_back(q.score);
      }
      std::printf("\nLunar learner score pcts: p50=%.3f p75=%.3f p90=%.3f p95=%.3f p99=%.3f max=%.3f\n",
                  util::percentile(scores, 50), util::percentile(scores, 75),
                  util::percentile(scores, 90), util::percentile(scores, 95),
                  util::percentile(scores, 99), util::max_of(scores));
    }
    std::vector<double> final_rewards;
    std::size_t non_learning = 0, solved = 0, crashed = 0;
    for (const auto& job : trace.jobs) {
      const double final_raw = job.curve.denormalize(job.curve.final_perf());
      final_rewards.push_back(final_raw);
      if (job.curve.final_perf() <= model.kill_threshold() + 0.01) ++non_learning;
      if (job.curve.first_epoch_reaching(model.target_performance()) != 0) ++solved;
      const double best_raw = job.curve.denormalize(job.curve.best_perf());
      if (best_raw > -50.0 && final_raw <= -100.0) ++crashed;
    }
    std::printf("\nLunarLander (n=%zu)\n", kConfigs);
    std::printf("  final reward: %s\n", util::to_string(util::box_stats(final_rewards)).c_str());
    std::printf("  non-learning at end (<= -100 region): %.1f%% (paper >50%%)\n",
                100.0 * static_cast<double>(non_learning) / kConfigs);
    std::printf("  crashed after learning: %.1f%%\n",
                100.0 * static_cast<double>(crashed) / kConfigs);
    std::printf("  ever solved (reward>=200 sustained): %.1f%%\n",
                100.0 * static_cast<double>(solved) / kConfigs);
  }
  return 0;
}
