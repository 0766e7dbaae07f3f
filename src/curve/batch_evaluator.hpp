// BatchEvaluator — fused, allocation-free log-posterior kernels for the
// ensemble MCMC hot path (ROADMAP item 1: ≥10x sweep-cell throughput).
//
// CurveEnsemble::log_posterior is evaluated ~nwalkers * nsamples times per
// fit. The generic path walks virtual ParametricModel::eval through two
// passes (prior sanity + likelihood), recomputing per-theta constants at
// every epoch. BatchEvaluator flattens the ensemble into dispatch-free
// tables at reset() time and evaluates with a single fused pass:
//
//   * one curve evaluation per epoch (the prior's sanity check and the
//     likelihood residual share it — eval is pure, so this is bit-identical
//     to the two-pass reference),
//   * per-theta constants hoisted out of the epoch loop (normalized weights
//     w_k / sum_j w_j, exp(b) for log_power, kappa^eta for hill3),
//   * per-epoch constants precomputed once per bind() (x, log x, log(x+1)),
//   * family expressions from the shared kernel header
//     (curve/family_kernels.hpp), the same ones the least-squares fitter
//     runs,
//   * struct-of-arrays log_prob_batch for the initial walker sweep: thetas
//     are transposed so the per-family inner loops run contiguously across
//     walkers.
//
// Every hoist reuses the exact arithmetic expression of the reference path
// (same operands, same operation order), so results are bit-identical — the
// contract predictor_equivalence_test enforces across all 11 families.
// Scratch buffers are members and reuse their capacity across reset()/bind(),
// so a steady-state predict loop does no allocation here.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "curve/ensemble.hpp"
#include "curve/family_kernels.hpp"
#include "curve/mcmc.hpp"

namespace hyperdrive::curve {

class BatchEvaluator final : public LogProbFn {
 public:
  BatchEvaluator() = default;
  explicit BatchEvaluator(const CurveEnsemble& ensemble) { reset(ensemble); }

  /// Capture the ensemble's layout (family kinds, parameter offsets, flat
  /// bounds). The ensemble must outlive this evaluator. Reusable:
  /// scratch capacity carries over from the previous reset.
  void reset(const CurveEnsemble& ensemble);

  /// Bind the observed prefix (ys[i] at epoch i+1) and precompute the
  /// per-epoch tables for epochs 1..ys.size() and the horizon. Must be
  /// called after reset() and before any evaluation.
  void bind(std::span<const double> ys);

  /// Fused scalar kernel: bit-identical to
  /// ensemble.log_posterior(theta, ys) on the bound prefix.
  [[nodiscard]] double log_prob(std::span<const double> theta) override;

  /// Struct-of-arrays kernel: bit-identical to calling log_prob per row.
  void log_prob_batch(std::span<const double> thetas, std::size_t rows,
                      std::span<double> out) override;

  /// Cutoff-aware kernel for the sampler's proposal loop: identical to
  /// log_prob except it may return -inf early once an exact float upper
  /// bound on the final value (likelihood terms replaced by their per-theta
  /// maximum, folded through the same accumulation) proves the published
  /// acceptance test cannot pass. Never changes an accept/reject decision.
  [[nodiscard]] double log_prob_cutoff(std::span<const double> theta,
                                       const AcceptanceCutoff& cutoff) override;

  /// Latent curve value at an arbitrary epoch x — bit-identical to
  /// ensemble.eval(x, theta). Used by the posterior-predictive stage.
  [[nodiscard]] double eval_curve(double x, std::span<const double> theta) const noexcept;

 private:
  struct Slot {
    Family kind;
    std::size_t offset;   ///< first parameter index in packed theta
  };

  /// Fused ensemble curve at table slot `idx` (epochs 1..n, horizon at n).
  /// wn_ must hold the normalized weights for `theta`.
  [[nodiscard]] double eval_slot(std::size_t idx, std::span<const double> theta)
      const noexcept;

  /// Shared body of log_prob / log_prob_cutoff; `cutoff` null = never prune.
  [[nodiscard]] double log_prob_impl(std::span<const double> theta,
                                     const AcceptanceCutoff* cutoff);

  std::vector<Slot> families_;
  std::vector<double> bounds_lo_;  ///< per packed-theta parameter index
  std::vector<double> bounds_hi_;
  std::size_t dim_ = 0;
  std::size_t weight_offset_ = 0;
  double horizon_ = 0.0;

  // bind() state: the observed prefix and per-epoch tables. Slot i holds
  // epoch i+1 for i < ys_.size(); the last slot holds the horizon.
  std::vector<double> ys_;
  std::vector<EpochPoint> points_;

  // Scalar-kernel scratch (per theta): normalized weights and hoisted
  // per-family constants.
  std::vector<double> wn_;
  std::vector<double> hoist_;

  // Batch-kernel scratch (per walker sweep), struct-of-arrays.
  std::vector<double> soa_;        ///< dim x rows transpose of the walkers
  std::vector<double> wn_b_;       ///< nfam x rows normalized weights
  std::vector<double> hoist_b_;    ///< nfam x rows hoisted constants
  std::vector<unsigned char> wact_b_;  ///< nfam x rows: weight > 0
  std::vector<unsigned char> live_;    ///< per row: still inside the support
  std::vector<double> ll_b_;
  std::vector<double> inv_var_b_;
  std::vector<double> log_sigma_b_;
  std::vector<double> acc_;
};

}  // namespace hyperdrive::curve
