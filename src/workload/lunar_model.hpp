// LunarLander-like reinforcement-learning workload (paper §6.3).
//
// Stands in for the Keras/Theano DQN of Asadi & Williams [4]: 11
// hyperparameters, reward in [-500, 300] min-max normalized per Eq. 4,
// "solved" at a sustained average reward of 200 over 100 consecutive trials,
// non-learning value -100 (the crash penalty), and the characteristic
// "learning-crash" failure mode of Fig. 8 where a configuration improves for
// a while and then collapses to the non-learning range for good.
//
// One epoch in this model = 200 episode trials, so the paper's RL evaluation
// boundary of 2,000 iterations equals b = 10 epochs, and 100 epochs span the
// 20,000 trials plotted in Fig. 8. The per-epoch performance value is the
// 100-trial trailing average the environment's solved condition is defined
// over.
#pragma once

#include "workload/workload_model.hpp"

namespace hyperdrive::workload {

class LunarWorkloadModel final : public WorkloadModel {
 public:
  LunarWorkloadModel();

  [[nodiscard]] std::string_view name() const noexcept override { return "lunarlander"; }
  [[nodiscard]] const HyperparameterSpace& space() const noexcept override { return space_; }
  [[nodiscard]] std::size_t max_epochs() const noexcept override { return kMaxEpochs; }
  /// Normalized solved threshold: (200 - (-500)) / 800 = 0.875.
  [[nodiscard]] double target_performance() const noexcept override;
  /// Normalized crash reward: (-100 - (-500)) / 800 = 0.5 (§5.3).
  [[nodiscard]] double kill_threshold() const noexcept override;
  /// b = 2,000 RL iterations = 10 of our 200-trial epochs.
  [[nodiscard]] std::size_t evaluation_boundary() const noexcept override { return 10; }

  [[nodiscard]] GroundTruthCurve realize(const Configuration& config,
                                         std::uint64_t experiment_seed) const override;

  [[nodiscard]] ConfigQuality quality(const Configuration& config) const;

  [[nodiscard]] double normalize_reward(double r) const noexcept;

 private:
  static constexpr std::size_t kMaxEpochs = 100;   ///< x 200 trials = 20k episode trials
  static constexpr double kRewardMin = -500.0;     ///< Eq. 4 r_min (empirical, §6.3)
  static constexpr double kRewardMax = 300.0;      ///< Eq. 4 r_max (environment bound)
  static constexpr double kSolvedReward = 200.0;   ///< environment's solved condition
  static constexpr double kCrashReward = -100.0;   ///< non-learning value (lander crash)

  HyperparameterSpace space_;
};

}  // namespace hyperdrive::workload
