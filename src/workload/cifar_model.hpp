// CIFAR-10-like supervised-learning workload (paper §6.1/§6.2).
//
// Stands in for the live Caffe layers-18pct CNN: 14 hyperparameters (the
// same kinds as Table 3 of Domhan et al. [11]), ~120 one-minute epochs,
// validation-accuracy metric with random accuracy 10% (10 classes),
// kill-threshold 15%, target 77%.
//
// Population calibration (asserted by tests/workload_calibration_test):
//   * ~32% of random configurations are non-learners near 10% accuracy
//     (Fig. 2a red circle),
//   * the majority stay below ~40% accuracy,
//   * only a few percent exceed 75% (Fig. 1: 3 of 50),
//   * best configurations peak around 78-80%,
//   * learning speed and final quality trade off, producing the overtake
//     phenomenon of Fig. 2b.
#pragma once

#include "workload/workload_model.hpp"

namespace hyperdrive::workload {

class CifarWorkloadModel final : public WorkloadModel {
 public:
  CifarWorkloadModel();

  [[nodiscard]] std::string_view name() const noexcept override { return "cifar10"; }
  [[nodiscard]] const HyperparameterSpace& space() const noexcept override { return space_; }
  [[nodiscard]] std::size_t max_epochs() const noexcept override { return kMaxEpochs; }
  [[nodiscard]] double target_performance() const noexcept override { return kTarget; }
  [[nodiscard]] double kill_threshold() const noexcept override { return kKillThreshold; }
  [[nodiscard]] std::size_t evaluation_boundary() const noexcept override { return 10; }

  [[nodiscard]] GroundTruthCurve realize(const Configuration& config,
                                         std::uint64_t experiment_seed) const override;

  /// Noise-free intrinsic quality of a configuration (tests/calibration).
  [[nodiscard]] ConfigQuality quality(const Configuration& config) const;

 private:
  static constexpr std::size_t kMaxEpochs = 120;
  static constexpr double kTarget = 0.77;
  static constexpr double kKillThreshold = 0.15;  ///< slightly above random accuracy (§5.3)
  static constexpr double kRandomAccuracy = 0.10;

  HyperparameterSpace space_;
};

}  // namespace hyperdrive::workload
