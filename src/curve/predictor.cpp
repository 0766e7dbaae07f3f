#include "curve/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "curve/batch_evaluator.hpp"
#include "curve/ensemble.hpp"
#include "curve/lsq_fit.hpp"
#include "util/hash.hpp"

namespace hyperdrive::curve {

namespace {

std::vector<std::unique_ptr<ParametricModel>> models_from_config(
    const PredictorConfig& config) {
  return config.model_names.empty() ? make_all_models() : make_models(config.model_names);
}

void validate_request(std::span<const double> history, std::span<const double> future_epochs,
                      double horizon) {
  if (history.empty()) throw std::invalid_argument("predict: empty history");
  if (future_epochs.empty()) throw std::invalid_argument("predict: no future epochs");
  if (!(horizon >= 1.0)) throw std::invalid_argument("predict: bad horizon");
  for (double e : future_epochs) {
    if (e <= static_cast<double>(history.size())) {
      throw std::invalid_argument("predict: future epoch not after history");
    }
  }
}

/// Scalar reference evaluator: the generic two-pass CurveEnsemble path,
/// kept as the ground truth the fused kernels are tested against.
class EnsembleLogProb final : public LogProbFn {
 public:
  EnsembleLogProb(const CurveEnsemble& ensemble, std::span<const double> ys)
      : ensemble_(ensemble), ys_(ys) {}

  [[nodiscard]] double log_prob(std::span<const double> theta) override {
    return ensemble_.log_posterior(theta, ys_);
  }

 private:
  const CurveEnsemble& ensemble_;
  std::span<const double> ys_;
};

class McmcPredictor final : public CurvePredictor, public WarmStartPredictor {
 public:
  explicit McmcPredictor(PredictorConfig config) : config_(std::move(config)) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "mcmc"; }

  [[nodiscard]] CurvePrediction predict(std::span<const double> history,
                                        std::span<const double> future_epochs,
                                        double horizon) const override {
    return predict_warm(history, future_epochs, horizon, nullptr, nullptr);
  }

  [[nodiscard]] CurvePrediction predict_warm(std::span<const double> history,
                                             std::span<const double> future_epochs,
                                             double horizon, const WarmPosterior* warm,
                                             WarmPosterior* out) const override {
    validate_request(history, future_epochs, horizon);
    CurveEnsemble ensemble(models_from_config(config_), horizon);
    util::Rng rng(
        util::derive_seed(config_.seed, util::hash_doubles(util::kFnvBasis, history)));
    const std::size_t dim = ensemble.dim();

    BatchEvaluator* eval = nullptr;
    McmcResult mcmc;
    bool sampled = false;
    if (warm != nullptr && !warm->empty() && warm->dim == dim &&
        warm->walkers.size() == config_.mcmc.nwalkers * dim) {
      try {
        mcmc = run_sampler(ensemble, history, warm->walkers, rng, eval);
        sampled = true;
      } catch (const std::runtime_error&) {
        // Every warm walker fell outside the grown prefix's support. The
        // sampler throws before consuming any randomness, so falling through
        // to the cold start below is byte-identical to a cold-only call.
      }
    }
    if (!sampled) {
      const auto center = ensemble.initial_theta(history);
      std::vector<double> walkers;
      walkers.reserve(config_.mcmc.nwalkers * dim);
      // First walker exactly at the least-squares center, the rest jittered.
      walkers.insert(walkers.end(), center.begin(), center.end());
      for (std::size_t i = 1; i < config_.mcmc.nwalkers; ++i) {
        const auto w = ensemble.jitter(center, rng);
        walkers.insert(walkers.end(), w.begin(), w.end());
      }
      mcmc = run_sampler(ensemble, history, std::move(walkers), rng, eval);
    }
    if (out != nullptr) {
      out->dim = dim;
      out->walkers = mcmc.final_walkers;
    }

    // Posterior predictive over *observed* performance: latent curve plus
    // each sample's own observation noise. Reported validation accuracy is
    // noisy, and targets are detected on the noisy values, so reached-by
    // probabilities must integrate the noise (a config plateauing just below
    // the target still has real probability of an observed crossing).
    const std::size_t width = future_epochs.size();
    std::vector<double> flat;
    flat.reserve(mcmc.num_samples() * width);
    std::vector<double> row(width);
    std::size_t kept = 0;
    for (std::size_t s = 0; s < mcmc.num_samples(); ++s) {
      const auto theta = mcmc.sample(s);
      const double sigma = std::exp(theta[ensemble.sigma_offset()]);
      bool ok = true;
      for (std::size_t e = 0; e < width; ++e) {
        const double latent = eval != nullptr
                                  ? eval->eval_curve(future_epochs[e], theta)
                                  : ensemble.eval(future_epochs[e], theta);
        row[e] = latent + rng.normal(0.0, sigma);
        if (!std::isfinite(row[e])) {
          ok = false;
          break;
        }
      }
      if (ok) {
        flat.insert(flat.end(), row.begin(), row.end());
        ++kept;
      }
    }
    return CurvePrediction(std::vector<double>(future_epochs.begin(), future_epochs.end()),
                           std::move(flat), kept);
  }

 private:
  /// Run the ensemble sampler over flat walkers, routing log-posterior
  /// evaluation through the fused kernels (config_.batched_kernel) or the
  /// scalar reference path. `eval_out` receives the bound evaluator (fused
  /// path only) so the posterior-predictive stage can reuse its tables.
  McmcResult run_sampler(const CurveEnsemble& ensemble, std::span<const double> history,
                         std::vector<double> walkers, util::Rng& rng,
                         BatchEvaluator*& eval_out) const {
    if (config_.batched_kernel) {
      // One evaluator per thread: its scratch arenas persist across predict
      // calls, so a steady-state sweep cell allocates nothing here.
      thread_local BatchEvaluator evaluator;
      evaluator.reset(ensemble);
      evaluator.bind(history);
      eval_out = &evaluator;
      return run_ensemble_mcmc(evaluator, std::move(walkers), ensemble.dim(),
                               config_.mcmc, rng);
    }
    EnsembleLogProb fn(ensemble, history);
    eval_out = nullptr;
    return run_ensemble_mcmc(fn, std::move(walkers), ensemble.dim(), config_.mcmc, rng);
  }

  PredictorConfig config_;
};

/// Fraction of LSQ bootstrap samples drawn from slope-based continuations
/// instead of family fits. Least-squares point fits of short prefixes are
/// systematically overconfident (they collapse to the nearest asymptote);
/// these samples restore the "might keep climbing" posterior mass that the
/// full MCMC ensemble represents through its asymptote spread.
constexpr double kLsqOptimisticFraction = 0.35;

/// Per-thread LSQ scratch, reused across predicts as BatchEvaluator's arenas
/// are: beyond its result, a steady-state predict allocates only the
/// families' initial-guess vectors.
struct LsqScratch {
  std::vector<FamilyFit> fits;
  std::vector<double> weights;
  std::vector<EpochPoint> future;  ///< the requested epochs, bound once
  std::vector<double> spread;   ///< min(2, extrapolation distance) per future epoch
  std::vector<double> curves;   ///< family k's fitted curve at row k
  std::vector<std::size_t> finite_prefix;  ///< per family: leading finite epochs
  std::vector<unsigned char> tabled;       ///< per family: row k filled
};

class LsqPredictor final : public CurvePredictor {
 public:
  explicit LsqPredictor(PredictorConfig config)
      : config_(std::move(config)), models_(models_from_config(config_)) {
    kinds_.reserve(models_.size());
    for (const auto& model : models_) kinds_.push_back(*family_of(model->name()));
  }

  [[nodiscard]] std::string_view name() const noexcept override { return "lsq_bootstrap"; }

  [[nodiscard]] CurvePrediction predict(std::span<const double> history,
                                        std::span<const double> future_epochs,
                                        double horizon) const override {
    validate_request(history, future_epochs, horizon);
    util::Rng rng(util::derive_seed(config_.seed ^ 0xf457,
                                    util::hash_doubles(util::kFnvBasis, history)));
    thread_local LsqScratch scratch;
    const std::size_t nfam = models_.size();

    // Per-family least-squares fit.
    auto& fits = scratch.fits;
    fits.resize(nfam);
    fit_families(models_, history, fits);
    double best_mse = std::numeric_limits<double>::infinity();
    for (const FamilyFit& fit : fits) best_mse = std::min(best_mse, fit.mse);

    // Mixture weights via a softmax over fit quality: families that explain
    // the prefix much worse than the best get negligible weight.
    auto& weights = scratch.weights;
    weights.assign(nfam, 0.0);
    const double scale = std::max(best_mse, 1e-6);
    for (std::size_t k = 0; k < nfam; ++k) {
      if (!std::isfinite(fits[k].mse)) continue;
      weights[k] = std::exp(-0.5 * (fits[k].mse - best_mse) / scale);
    }

    const double sigma = std::clamp(std::sqrt(std::max(best_mse, 1e-8)), 2e-3, 0.3);
    const double last = history.back();

    // Recent slope for the continuation samples: mean of the last few
    // first differences.
    double slope = 0.0;
    {
      const std::size_t window = std::min<std::size_t>(5, history.size() - 1);
      if (window > 0) {
        for (std::size_t i = history.size() - window; i < history.size(); ++i) {
          slope += history[i] - history[i - 1];
        }
        slope /= static_cast<double>(window);
      }
    }

    // Bootstrap: sample a family, jitter its fitted curve by a random offset
    // and slope perturbation scaled to the residual noise. A fixed fraction
    // of samples (kLsqOptimisticFraction) instead follow geometrically-damped
    // continuations of the recent slope. A family's fitted curve is
    // deterministic, so it is evaluated once, the first time the family is
    // drawn; each sample still draws its deviates in the order a per-sample
    // evaluation would (the samples are pinned by lsq_digest_test).
    const std::size_t width = future_epochs.size();
    const double n = static_cast<double>(history.size());
    auto& spread = scratch.spread;
    spread.resize(width);
    scratch.future.resize(width);
    for (std::size_t e = 0; e < width; ++e) {
      scratch.future[e] = EpochPoint::at(future_epochs[e]);
      // Uncertainty about the asymptote grows with extrapolation distance.
      const double dist = std::max(0.0, (future_epochs[e] - n) / std::max(1.0, n));
      spread[e] = std::min(2.0, dist);
    }
    scratch.curves.resize(nfam * width);
    scratch.finite_prefix.resize(nfam);
    scratch.tabled.assign(nfam, 0);

    std::vector<double> flat(config_.lsq_samples * width);
    for (std::size_t s = 0; s < config_.lsq_samples; ++s) {
      double* curve = flat.data() + s * width;
      if (rng.bernoulli(kLsqOptimisticFraction)) {
        // Continuation sample: y(x) = last + slope * sum_{j<=x-n} gamma^j,
        // gamma ~ U(0.80, 1.0). gamma -> 1 extrapolates the trend linearly;
        // small gamma saturates quickly. Flat histories stay flat, so this
        // adds no false hope to non-learners.
        const double gamma = rng.uniform(0.80, 1.0);
        const double offset = rng.normal(0.0, sigma);
        for (std::size_t e = 0; e < width; ++e) {
          const double steps = future_epochs[e] - n;
          const double geo = gamma >= 0.9999
                                 ? steps
                                 : gamma * (1.0 - std::pow(gamma, steps)) / (1.0 - gamma);
          curve[e] = std::clamp(last + slope * geo + offset + rng.normal(0.0, sigma),
                                kPriorYLo, kPriorYHi);
        }
        continue;
      }
      const std::size_t k = rng.categorical(weights);
      const double* fitted = tabled_curve(scratch, k);
      const std::size_t finite = scratch.finite_prefix[k];
      const double offset = rng.normal(0.0, sigma);
      const double drift = rng.normal(0.0, sigma);
      for (std::size_t e = 0; e < finite; ++e) {
        double y = fitted[e];
        // Offset/drift model parameter uncertainty; the extra per-epoch term
        // is the observation noise of the posterior predictive.
        y += offset + drift * spread[e] + rng.normal(0.0, sigma);
        curve[e] = std::clamp(y, kPriorYLo, kPriorYHi);
      }
      if (finite < width) {
        // The fitted curve goes non-finite at epoch `finite` (after one
        // noise draw per finite epoch): fall back to a flat continuation of
        // the last observation.
        for (std::size_t e = 0; e < width; ++e) curve[e] = last + rng.normal(0.0, sigma);
      }
    }
    return CurvePrediction(std::vector<double>(future_epochs.begin(), future_epochs.end()),
                           std::move(flat), config_.lsq_samples);
  }

 private:
  /// Row k of the fitted-curve table (family k at every future epoch, up to
  /// its first non-finite value), filled the first time family k is drawn.
  const double* tabled_curve(LsqScratch& scratch, std::size_t k) const {
    const std::size_t width = scratch.future.size();
    double* row = scratch.curves.data() + k * width;
    if (scratch.tabled[k] != 0) return row;
    const auto& params = scratch.fits[k].params;
    scratch.finite_prefix[k] = visit_family(kinds_[k], [&](auto tag) {
      constexpr Family kF = decltype(tag)::value;
      const double hoist = family_hoist<kF>(params);
      for (std::size_t e = 0; e < width; ++e) {
        const double y = family_eval<kF>(scratch.future[e], params, hoist);
        if (!std::isfinite(y)) return e;
        row[e] = y;
      }
      return width;
    });
    scratch.tabled[k] = 1;
    return row;
  }

  PredictorConfig config_;
  /// The family table, built once: the reference models (bounds and
  /// initial guesses) and their kernels.
  std::vector<std::unique_ptr<ParametricModel>> models_;
  std::vector<Family> kinds_;
};

class LastValuePredictor final : public CurvePredictor {
 public:
  explicit LastValuePredictor(PredictorConfig config) : config_(std::move(config)) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "last_value"; }

  [[nodiscard]] CurvePrediction predict(std::span<const double> history,
                                        std::span<const double> future_epochs,
                                        double horizon) const override {
    validate_request(history, future_epochs, horizon);
    util::Rng rng(util::derive_seed(config_.seed ^ 0x1a57,
                                    util::hash_doubles(util::kFnvBasis, history)));
    const double last = history.back();
    // Noise floor from recent history variability.
    double sigma = 0.01;
    if (history.size() >= 4) {
      double acc = 0.0;
      for (std::size_t i = history.size() - 3; i < history.size(); ++i) {
        acc += std::fabs(history[i] - history[i - 1]);
      }
      sigma = std::max(0.005, acc / 3.0);
    }
    const std::size_t nsamples = std::max<std::size_t>(32, config_.lsq_samples);
    const std::size_t width = future_epochs.size();
    std::vector<double> flat(nsamples * width);
    for (std::size_t s = 0; s < nsamples; ++s) {
      const double offset = rng.normal(0.0, sigma);
      std::fill(flat.begin() + static_cast<std::ptrdiff_t>(s * width),
                flat.begin() + static_cast<std::ptrdiff_t>((s + 1) * width), last + offset);
    }
    return CurvePrediction(std::vector<double>(future_epochs.begin(), future_epochs.end()),
                           std::move(flat), nsamples);
  }

 private:
  PredictorConfig config_;
};

}  // namespace

CurvePrediction::CurvePrediction(std::vector<double> epochs, std::vector<double> flat_samples,
                                 std::size_t num_samples)
    : epochs_(std::move(epochs)), samples_(std::move(flat_samples)), nsamples_(num_samples) {
  if (samples_.size() != nsamples_ * epochs_.size()) {
    throw std::invalid_argument("CurvePrediction: sample width mismatch");
  }
  finalize();
}

void CurvePrediction::finalize() {
  const std::size_t width = epochs_.size();
  running_max_.resize(samples_.size());
  for (std::size_t s = 0; s < nsamples_; ++s) {
    double acc = -std::numeric_limits<double>::infinity();
    for (std::size_t e = 0; e < width; ++e) {
      acc = std::max(acc, samples_[s * width + e]);
      running_max_[s * width + e] = acc;
    }
  }
}

double CurvePrediction::mean_at(std::size_t epoch_idx) const {
  if (nsamples_ == 0) return 0.0;
  if (epoch_idx >= epochs_.size()) throw std::out_of_range("CurvePrediction: epoch index");
  const std::size_t width = epochs_.size();
  double s = 0.0;
  for (std::size_t r = 0; r < nsamples_; ++r) s += samples_[r * width + epoch_idx];
  return s / static_cast<double>(nsamples_);
}

double CurvePrediction::stddev_at(std::size_t epoch_idx) const {
  if (nsamples_ < 2) return 0.0;
  const double m = mean_at(epoch_idx);
  const std::size_t width = epochs_.size();
  double acc = 0.0;
  for (std::size_t r = 0; r < nsamples_; ++r) {
    const double d = samples_[r * width + epoch_idx] - m;
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(nsamples_ - 1));
}

double CurvePrediction::prob_at_least(std::size_t epoch_idx, double y) const {
  if (nsamples_ == 0) return 0.0;
  if (epoch_idx >= epochs_.size()) throw std::out_of_range("CurvePrediction: epoch index");
  const std::size_t width = epochs_.size();
  std::size_t hits = 0;
  for (std::size_t r = 0; r < nsamples_; ++r) {
    if (samples_[r * width + epoch_idx] >= y) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(nsamples_);
}

double CurvePrediction::prob_reached_by(std::size_t epoch_idx, double y) const {
  if (nsamples_ == 0) return 0.0;
  if (epoch_idx >= epochs_.size()) throw std::out_of_range("CurvePrediction: epoch index");
  const std::size_t width = epochs_.size();
  std::size_t hits = 0;
  for (std::size_t r = 0; r < nsamples_; ++r) {
    if (running_max_[r * width + epoch_idx] >= y) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(nsamples_);
}

std::unique_ptr<CurvePredictor> make_mcmc_predictor(PredictorConfig config) {
  return std::make_unique<McmcPredictor>(std::move(config));
}

std::unique_ptr<CurvePredictor> make_lsq_predictor(PredictorConfig config) {
  return std::make_unique<LsqPredictor>(std::move(config));
}

std::unique_ptr<CurvePredictor> make_last_value_predictor(PredictorConfig config) {
  return std::make_unique<LastValuePredictor>(std::move(config));
}

}  // namespace hyperdrive::curve
