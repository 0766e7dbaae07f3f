// ImageNet22k-like large-scale workload — the paper's introductory
// motivation: "a high-quality ImageNet22k image classification model can
// take up to ten days to train to convergence using 62 machines" [8]
// (Project Adam). At this scale exhaustive exploration is hopeless and
// early termination pays for itself many times over.
//
// One "machine" here is a 62-node-class training partition and one epoch a
// multi-hour pass, so experiments are measured in days. The model reuses the
// CIFAR quality structure with a 21k-class output (random accuracy ~0.005%,
// in practice indistinguishable from 0), top-1 accuracies topping out around
// 37% (the Project Adam era), and strongly heavy-tailed epoch durations.
#pragma once

#include "workload/workload_model.hpp"

namespace hyperdrive::workload {

class ImagenetWorkloadModel final : public WorkloadModel {
 public:
  ImagenetWorkloadModel();

  [[nodiscard]] std::string_view name() const noexcept override { return "imagenet22k"; }
  [[nodiscard]] const HyperparameterSpace& space() const noexcept override { return space_; }
  [[nodiscard]] std::size_t max_epochs() const noexcept override { return kMaxEpochs; }
  [[nodiscard]] double target_performance() const noexcept override { return kTarget; }
  [[nodiscard]] double kill_threshold() const noexcept override { return kKillThreshold; }
  [[nodiscard]] std::size_t evaluation_boundary() const noexcept override { return 3; }

  [[nodiscard]] GroundTruthCurve realize(const Configuration& config,
                                         std::uint64_t experiment_seed) const override;

  [[nodiscard]] ConfigQuality quality(const Configuration& config) const;

 private:
  static constexpr std::size_t kMaxEpochs = 60;  ///< ~4 h each => ~10 days to convergence
  static constexpr double kTarget = 0.35;         ///< strong top-1 for the era's models
  static constexpr double kKillThreshold = 0.02;  ///< still near-random after the boundary

  HyperparameterSpace space_;
};

}  // namespace hyperdrive::workload
