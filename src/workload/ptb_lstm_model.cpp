#include "workload/ptb_lstm_model.hpp"

#include <algorithm>
#include <cmath>

namespace hyperdrive::workload {

PtbLstmWorkloadModel::PtbLstmWorkloadModel() {
  // The Zaremba et al. medium-LSTM knobs plus the group-Lasso lambda of the
  // §9 case study.
  space_.add("lambda", ContinuousDomain{1e-7, 1e-2, /*log_scale=*/true})
      .add("lr", ContinuousDomain{0.1, 10.0, true})
      .add("lr_decay", ContinuousDomain{0.3, 0.95})
      .add("dropout", ContinuousDomain{0.0, 0.8})
      .add("hidden_size", IntegerDomain{128, 1500, true})
      .add("num_layers", IntegerDomain{1, 3})
      .add("seq_len", IntegerDomain{10, 70})
      .add("batch_size", IntegerDomain{10, 64, true})
      .add("grad_clip", ContinuousDomain{1.0, 15.0})
      .add("embed_init", ContinuousDomain{0.01, 0.3, true});
}

double PtbLstmWorkloadModel::normalize_ppl(double ppl) const noexcept {
  return std::clamp((kPplWorst - ppl) / (kPplWorst - kPplBest), 0.0, 1.0);
}

double PtbLstmWorkloadModel::denormalize_ppl(double score) const noexcept {
  return kPplWorst - score * (kPplWorst - kPplBest);
}

double PtbLstmWorkloadModel::target_performance() const noexcept {
  return normalize_ppl(kTargetPpl);
}

double PtbLstmWorkloadModel::kill_threshold() const noexcept {
  return normalize_ppl(kKillPpl);
}

double PtbLstmWorkloadModel::target_sparsity(const Configuration& config) const {
  // Group Lasso zeroes more groups the larger lambda: a logistic in
  // log10(lambda), negligible below 1e-6 and saturating near 0.9 at 1e-2.
  const double l = std::log10(config.get_double("lambda"));
  return 0.9 / (1.0 + std::exp(-(l + 3.6) / 0.55));
}

ConfigQuality PtbLstmWorkloadModel::quality(const Configuration& config) const {
  ConfigQuality q;
  const double lr = config.get_double("lr");
  const double grad_clip = config.get_double("grad_clip");
  const double dropout = config.get_double("dropout");
  const auto hidden = static_cast<double>(config.get_int("hidden_size"));

  // Divergence: LSTM language models explode with a hot learning rate and a
  // loose gradient clip.
  if (lr > 6.0 && grad_clip > 10.0) {
    q.learns = false;
    q.final_perf = normalize_ppl(kPplWorst * 0.9);
    q.speed = 1.0;
    return q;
  }

  const double s_lr = log_kernel(lr, 0.0, 0.55);  // ideal ~1.0
  const double s_decay = linear_kernel(config.get_double("lr_decay"), 0.8, 0.25);
  const double s_drop = linear_kernel(dropout, 0.5, 0.3);
  const double s_hidden = log_kernel(hidden, 2.8, 0.5);  // ideal ~650
  const double s_layers =
      config.get_int("num_layers") == 2 ? 1.0 : (config.get_int("num_layers") == 3 ? 0.8 : 0.6);
  const double s_seq =
      linear_kernel(static_cast<double>(config.get_int("seq_len")), 35.0, 25.0);
  const double s_batch =
      log_kernel(static_cast<double>(config.get_int("batch_size")), 1.3, 0.6);
  const double s_clip = linear_kernel(grad_clip, 5.0, 5.0);
  const double s_embed = log_kernel(config.get_double("embed_init"), -1.0, 0.7);

  const double score = std::pow(s_lr, 0.28) * std::pow(s_decay, 0.10) *
                       std::pow(s_drop, 0.14) * std::pow(s_hidden, 0.16) *
                       std::pow(s_layers, 0.08) * std::pow(s_seq, 0.06) *
                       std::pow(s_batch, 0.06) * std::pow(s_clip, 0.06) *
                       std::pow(s_embed, 0.06);
  q.score = score;

  // Base perplexity from hyperparameter quality: 65 for perfect settings,
  // drifting toward ~400 for poor-but-converging ones.
  const double base_ppl = kPplBest + (400.0 - kPplBest) * std::pow(1.0 - score, 1.6);

  // Group-Lasso trade-off (the §9 knee): gentle perplexity cost up to ~55%
  // sparsity, steep beyond it.
  const double sparsity = target_sparsity(config);
  const double knee = std::max(0.0, sparsity - 0.55);
  const double ppl_penalty = 1.0 + 0.06 * (sparsity / 0.55) + 3.0 * knee * knee;

  q.final_perf = normalize_ppl(base_ppl * ppl_penalty);
  q.speed = 0.5 + 1.6 * score;
  q.learns = true;
  return q;
}

GroundTruthCurve PtbLstmWorkloadModel::realize(const Configuration& config,
                                               std::uint64_t experiment_seed) const {
  const ConfigQuality q = quality(config);
  const std::uint64_t config_hash = config.stable_hash();
  util::Rng shape_rng(util::derive_seed(config_hash, 0x15b7));
  util::Rng noise_rng(util::derive_seed(config_hash ^ experiment_seed, 0x2e0c));

  GroundTruthCurve curve;
  curve.raw_min = 0.0;
  curve.raw_max = 1.0;
  curve.perf.resize(kMaxEpochs);
  curve.secondary.resize(kMaxEpochs);

  // PTB epochs are slow: minutes each, scaling with network size.
  const double hidden = static_cast<double>(config.get_int("hidden_size"));
  const double layers = static_cast<double>(config.get_int("num_layers"));
  const double base_seconds = 90.0 + 0.35 * hidden * layers / 2.0;
  curve.epoch_duration =
      util::SimTime::seconds(base_seconds * shape_rng.lognormal(0.0, 0.08));

  const double noise_sigma = 0.004 + 0.006 * shape_rng.uniform();
  const double sparsity_final = target_sparsity(config);
  // Sparsity ramps in once the optimizer has shrunk whole groups: a delayed
  // logistic over epochs.
  const double sparsity_mid = 6.0 + 8.0 * shape_rng.uniform();
  const double sparsity_rate = 0.25 + 0.2 * shape_rng.uniform();

  if (!q.learns) {
    for (std::size_t e = 0; e < curve.perf.size(); ++e) {
      curve.perf[e] = std::clamp(
          normalize_ppl(kPplWorst * 0.9) + noise_rng.normal(0.0, noise_sigma),
          0.0, 1.0);
      curve.secondary[e] = 0.0;  // diverged models shrink nothing
    }
    return curve;
  }

  const double start = normalize_ppl(650.0 - 150.0 * shape_rng.uniform());
  const double k = 0.14 * q.speed * shape_rng.lognormal(0.0, 0.15);
  const double d = 0.9 + 0.5 * shape_rng.uniform();
  for (std::size_t e = 0; e < curve.perf.size(); ++e) {
    const double x = static_cast<double>(e + 1);
    double y = start + (q.final_perf - start) * (1.0 - std::exp(-std::pow(k * x, d)));
    y += noise_rng.normal(0.0, noise_sigma);
    curve.perf[e] = std::clamp(y, 0.0, 1.0);

    double s = sparsity_final / (1.0 + std::exp(-(x - sparsity_mid) * sparsity_rate));
    s += noise_rng.normal(0.0, 0.01);
    curve.secondary[e] = std::clamp(s, 0.0, 1.0);
  }
  return curve;
}

}  // namespace hyperdrive::workload
