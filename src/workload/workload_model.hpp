// Workload models: the stand-ins for live model training.
//
// The paper trains real models (Caffe CIFAR-10 CNN; Keras/Theano LunarLander
// DQN). Neither is available here, so — exactly as the paper's own §7 does
// with its trace-driven simulator — we replace live training with
// ground-truth learning curves. A WorkloadModel maps a hyperparameter
// Configuration *deterministically* (via Configuration::stable_hash, mixed
// with an experiment seed) to a full performance curve plus a constant epoch
// duration (§9: epoch durations are roughly constant per configuration).
//
// The two concrete models are calibrated against the population statistics
// the paper reports:
//   CIFAR-10 (§6.2, Fig. 1/2): ~32% of configurations stuck at ~10% random
//     accuracy, majority below 20%, only a few % exceeding 75%; overtaking
//     curves; ~120 epochs of ~1 minute.
//   LunarLander (§6.3, Fig. 8): rewards in [-500, 300] min-max normalized
//     (Eq. 4), >50% non-learners, "learning-crash" dynamics, solved at
//     sustained reward 200.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/sim_time.hpp"
#include "workload/hyperparameters.hpp"

namespace hyperdrive::workload {

/// The full ground truth for one configuration: what a training job would
/// report, epoch by epoch, if run to the maximum epoch.
struct GroundTruthCurve {
  /// Normalized performance in [0, 1] after epoch i+1 (validation accuracy,
  /// or min-max scaled reward).
  std::vector<double> perf;
  /// Optional secondary metric per epoch (same length as perf when present;
  /// empty otherwise). Used by multi-metric workloads such as the §9
  /// LSTM-sparsity case study (primary = perplexity score, secondary =
  /// structural sparsity).
  std::vector<double> secondary;
  /// Average epoch duration for this configuration (constant per §9).
  util::SimTime epoch_duration;
  /// Raw-metric bounds for denormalization (accuracy: 0..1; reward: -500..300).
  double raw_min = 0.0;
  double raw_max = 1.0;

  [[nodiscard]] std::size_t max_epochs() const noexcept { return perf.size(); }
  [[nodiscard]] double final_perf() const noexcept { return perf.empty() ? 0.0 : perf.back(); }
  [[nodiscard]] double best_perf() const noexcept;
  /// First epoch (1-based) at which perf >= target, or 0 if never.
  [[nodiscard]] std::size_t first_epoch_reaching(double target) const noexcept;
  [[nodiscard]] double denormalize(double y) const noexcept {
    return raw_min + y * (raw_max - raw_min);
  }
};

/// Interface implemented by the CIFAR-like and LunarLander-like models.
class WorkloadModel {
 public:
  virtual ~WorkloadModel() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual const HyperparameterSpace& space() const noexcept = 0;
  /// Number of epochs a Default-policy run would execute.
  [[nodiscard]] virtual std::size_t max_epochs() const noexcept = 0;
  /// Normalized target performance (y_target): 0.77 for CIFAR, the solved
  /// condition for LunarLander.
  [[nodiscard]] virtual double target_performance() const noexcept = 0;
  /// Normalized kill threshold from domain knowledge (§5.3): 0.15 accuracy
  /// for CIFAR, reward -100 for LunarLander.
  [[nodiscard]] virtual double kill_threshold() const noexcept = 0;
  /// Evaluation boundary b in iterations (10 supervised, 2000-RL-iterations
  /// expressed in our epoch units).
  [[nodiscard]] virtual std::size_t evaluation_boundary() const noexcept = 0;

  /// Deterministically realize the ground truth for a configuration.
  /// `experiment_seed` varies the noise realization between repeat runs
  /// (the paper repeats experiments 10x/5x for exactly this reason) while
  /// keeping the configuration's intrinsic quality fixed.
  [[nodiscard]] virtual GroundTruthCurve realize(const Configuration& config,
                                                 std::uint64_t experiment_seed) const = 0;
};

/// Gaussian kernel in log10 space: 1 at the ideal value, decaying with
/// distance measured in `width` decades. The workload models score each
/// hyperparameter with it (or linear_kernel) and multiply the scores.
[[nodiscard]] double log_kernel(double value, double ideal_log10, double width);
/// Gaussian kernel in linear space: 1 at `ideal`, decaying with distance
/// measured in `width` units.
[[nodiscard]] double linear_kernel(double value, double ideal, double width);

/// Intrinsic (noise-free) quality summary, exposed for tests and calibration.
struct ConfigQuality {
  double final_perf = 0.0;   ///< asymptotic normalized performance
  double speed = 1.0;        ///< learning-rate-of-curve scale (higher = faster)
  double score = 0.0;        ///< raw quality score in [0, 1] before mapping
  bool learns = false;       ///< false => stuck at the non-learning floor
  bool crashes = false;      ///< RL only: learning-crash midway
};

}  // namespace hyperdrive::workload
