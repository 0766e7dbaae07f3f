#include "workload/imagenet_model.hpp"

#include <algorithm>
#include <cmath>

namespace hyperdrive::workload {

ImagenetWorkloadModel::ImagenetWorkloadModel() {
  // Distributed-training knobs in addition to the optimizer's: per-worker
  // batch, parameter-server shards, async staleness bound.
  space_.add("lr", ContinuousDomain{1e-4, 1.0, /*log_scale=*/true})
      .add("lr_decay", ContinuousDomain{0.5, 0.99})
      .add("momentum", ContinuousDomain{0.0, 0.99})
      .add("weight_decay", ContinuousDomain{1e-7, 1e-2, true})
      .add("worker_batch", IntegerDomain{16, 256, true})
      .add("ps_shards", IntegerDomain{8, 128, true})
      .add("staleness_bound", IntegerDomain{1, 32, true})
      .add("dropout", ContinuousDomain{0.0, 0.7})
      .add("init_scale", ContinuousDomain{1e-4, 1e-1, true});
}

ConfigQuality ImagenetWorkloadModel::quality(const Configuration& config) const {
  ConfigQuality q;
  const double lr = config.get_double("lr");
  const auto staleness = static_cast<double>(config.get_int("staleness_bound"));

  // Async SGD at this scale diverges when a hot learning rate meets a loose
  // staleness bound (the Hogwild effect the paper cites for its
  // non-determinism discussion).
  if (lr * std::sqrt(staleness) > 0.9) {
    q.learns = false;
    q.final_perf = 0.003;  // random-ish among ~21k classes
    q.speed = 1.0;
    return q;
  }

  const double s_lr = log_kernel(lr, -1.5, 0.8);
  const double s_mom = linear_kernel(config.get_double("momentum"), 0.9, 0.3);
  const double s_wd = log_kernel(config.get_double("weight_decay"), -4.0, 1.8);
  const double s_batch =
      log_kernel(static_cast<double>(config.get_int("worker_batch")), 1.7, 0.8);
  const double s_shards =
      log_kernel(static_cast<double>(config.get_int("ps_shards")), 1.6, 0.8);
  const double s_stale = log_kernel(staleness, 0.6, 0.8);
  const double s_drop = linear_kernel(config.get_double("dropout"), 0.4, 0.3);
  const double s_init = log_kernel(config.get_double("init_scale"), -2.0, 1.0);

  const double score = std::pow(s_lr, 0.30) * std::pow(s_mom, 0.14) *
                       std::pow(s_wd, 0.12) * std::pow(s_batch, 0.10) *
                       std::pow(s_shards, 0.10) * std::pow(s_stale, 0.10) *
                       std::pow(s_drop, 0.07) * std::pow(s_init, 0.07);
  q.score = score;
  // Top-1 on 22k classes: from a few percent to ~37% for the best settings.
  q.final_perf = 0.02 + 0.36 * std::pow(score, 0.9);
  q.speed = 0.5 + 1.7 * score;
  q.learns = true;
  return q;
}

GroundTruthCurve ImagenetWorkloadModel::realize(const Configuration& config,
                                                std::uint64_t experiment_seed) const {
  const ConfigQuality q = quality(config);
  const std::uint64_t config_hash = config.stable_hash();
  util::Rng shape_rng(util::derive_seed(config_hash, 0x1226));
  util::Rng noise_rng(util::derive_seed(config_hash ^ experiment_seed, 0x22ae));

  GroundTruthCurve curve;
  curve.raw_min = 0.0;
  curve.raw_max = 1.0;
  curve.perf.resize(kMaxEpochs);

  // ~4-hour epochs (one pass over 15M images on a 62-machine partition),
  // mildly dependent on the parameter-server sharding.
  const double shards = static_cast<double>(config.get_int("ps_shards"));
  const double base_hours = 3.2 + 45.0 / shards;
  curve.epoch_duration = util::SimTime::hours(base_hours * shape_rng.lognormal(0.0, 0.10));

  const double noise_sigma = 0.002 + 0.004 * shape_rng.uniform();
  if (!q.learns) {
    for (auto& y : curve.perf) {
      y = std::clamp(0.003 + noise_rng.normal(0.0, noise_sigma), 0.0, 0.02);
    }
    return curve;
  }

  const double k = 0.05 * q.speed * shape_rng.lognormal(0.0, 0.2);
  const double d = 0.9 + 0.5 * shape_rng.uniform();
  for (std::size_t e = 0; e < curve.perf.size(); ++e) {
    const double x = static_cast<double>(e + 1);
    const double growth =
        0.10 * (1.0 - std::exp(-x / 2.0)) + 0.90 * (1.0 - std::exp(-std::pow(k * x, d)));
    double y = 0.003 + (q.final_perf - 0.003) * growth;
    y += noise_rng.normal(0.0, noise_sigma);
    curve.perf[e] = std::clamp(y, 0.0, 0.45);
  }
  return curve;
}

}  // namespace hyperdrive::workload
