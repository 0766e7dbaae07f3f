// PTB-LSTM-like multi-metric workload: the §9 "Ongoing Work" case study.
//
// The paper describes exploring LSTM language models regularized with group
// Lasso (Wen et al. [29], Yuan & Lin [32]): a new hyperparameter lambda
// trades structural sparsity (storage/compute savings) against perplexity
// (the primary metric), and HyperDrive schedules on *both* metrics with
// user-defined global termination criteria.
//
// This model stands in for a word-level PTB LSTM (Zaremba et al. [33]):
//   * primary metric: validation perplexity, reported normalized as
//         score = (ppl_worst - ppl) / (ppl_worst - ppl_best)
//     so that "higher is better" like the other workloads;
//   * secondary metric: fraction of LSTM groups zeroed by group Lasso,
//     in [0, 1], growing over training and increasing with lambda;
//   * the lambda trade-off: more sparsity costs perplexity, gently below a
//     knee and steeply beyond it.
#pragma once

#include "workload/workload_model.hpp"

namespace hyperdrive::workload {

class PtbLstmWorkloadModel final : public WorkloadModel {
 public:
  PtbLstmWorkloadModel();

  [[nodiscard]] std::string_view name() const noexcept override { return "ptb_lstm"; }
  [[nodiscard]] const HyperparameterSpace& space() const noexcept override { return space_; }
  [[nodiscard]] std::size_t max_epochs() const noexcept override { return kMaxEpochs; }
  [[nodiscard]] double target_performance() const noexcept override;
  [[nodiscard]] double kill_threshold() const noexcept override;
  [[nodiscard]] std::size_t evaluation_boundary() const noexcept override { return 5; }

  [[nodiscard]] GroundTruthCurve realize(const Configuration& config,
                                         std::uint64_t experiment_seed) const override;

  [[nodiscard]] ConfigQuality quality(const Configuration& config) const;

  /// Normalized score for a raw perplexity (clamped to [0, 1]).
  [[nodiscard]] double normalize_ppl(double ppl) const noexcept;
  /// Raw perplexity for a normalized score.
  [[nodiscard]] double denormalize_ppl(double score) const noexcept;
  /// Asymptotic sparsity fraction implied by a configuration's lambda.
  [[nodiscard]] double target_sparsity(const Configuration& config) const;

 private:
  static constexpr std::size_t kMaxEpochs = 40;
  static constexpr double kPplBest = 65.0;    ///< strong medium-LSTM perplexity
  static constexpr double kPplWorst = 800.0;  ///< diverged / random-ish model
  /// Primary target: perplexity at or below this value.
  static constexpr double kTargetPpl = 90.0;
  /// Kill threshold: still at or above this perplexity at a boundary.
  static constexpr double kKillPpl = 500.0;

  HyperparameterSpace space_;
};

}  // namespace hyperdrive::workload
