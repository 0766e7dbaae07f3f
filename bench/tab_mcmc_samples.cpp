// §5.2 "Reduce total MCMC samples": the paper cut the predictor's MCMC
// budget from 250,000 samples (nwalkers=100, nsamples=2500) to 70,000
// (nwalkers=100, nsamples=700) for a >2x faster prediction without
// significant policy degradation. This bench times that trade-off for our
// predictor on growing prefixes (epochs 10, 20, 30) of a fig07 CIFAR curve,
// asking for y(120), in five arms:
//
//   250k        batched kernels, 2500 steps per walker
//   70k         batched kernels, 700 steps (the paper's reduced setting)
//   70k-scalar  the generic CurveEnsemble reference path at 700 steps; its
//               posterior must match the 70k arm bit for bit
//   70k-warm    the 70k arm behind CachingPredictor's warm posterior reuse
//   lsq         the LSQ bootstrap that schedules every sweep cell, on
//               POP-shaped requests (prefixes 10..100, every epoch to 120)
//
// Each arm prints predicts/s, ms per predict and mean P(y(120) >= 0.7).
// Burn-in is a quarter of the steps and every 10th step is kept. --smoke
// divides every arm's step count by 10: the MCMC chain length and the LSQ
// arm's request rounds. The bench exits 1 when the batched and scalar
// posteriors differ.
#include "bench_common.hpp"

#include <chrono>
#include <memory>

#include "curve/caching_predictor.hpp"
#include "curve/predictor.hpp"

using namespace hyperdrive;

namespace {

constexpr std::size_t kMaxEpoch = 120;
constexpr double kGoal = 0.7;
constexpr std::size_t kSmokeFactor = 10;

/// What one arm measured over its requests.
struct Arm {
  std::size_t predicts = 0;
  double seconds = 0.0;
  double mean_y = 0.0;     ///< mean posterior mean of y(120)
  double mean_prob = 0.0;  ///< mean P(y(120) >= kGoal)

  [[nodiscard]] double per_s() const { return static_cast<double>(predicts) / seconds; }
  [[nodiscard]] double ms() const { return 1000.0 * seconds / static_cast<double>(predicts); }
};

curve::PredictorConfig mcmc_config(std::size_t steps, bool batched) {
  curve::PredictorConfig config;
  config.mcmc.nwalkers = 100;  // full 11-family ensemble: dim 48, >= 96 walkers
  config.mcmc.nsamples = steps;
  config.mcmc.burn_in = steps / 4;
  config.mcmc.thin = 10;
  config.seed = 42;
  config.batched_kernel = batched;
  return config;
}

/// Times `predictor` over `rounds` rounds of the `prefixes` of `curve`. Each
/// round nudges the first epoch, so every round is a fresh curve to a
/// prediction cache while the prefixes within a round share their start
/// (what warm reuse keys on). `pop_shaped` asks for every epoch after the
/// prefix up to 120, as POP's remaining-time pmf does; otherwise y(120) only.
Arm time_arm(const curve::CurvePredictor& predictor, const std::vector<double>& curve,
             const std::vector<std::size_t>& prefixes, std::size_t rounds, bool pop_shaped) {
  Arm arm;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const std::size_t prefix : prefixes) {
      std::vector<double> history(curve.begin(),
                                  curve.begin() + static_cast<std::ptrdiff_t>(prefix));
      history.front() += 1e-9 * static_cast<double>(r + 1);
      std::vector<double> future;
      for (std::size_t e = pop_shaped ? prefix + 1 : kMaxEpoch; e <= kMaxEpoch; ++e) {
        future.push_back(static_cast<double>(e));
      }
      const auto pred = predictor.predict(history, future, static_cast<double>(kMaxEpoch));
      arm.mean_y += pred.mean_at(future.size() - 1);
      arm.mean_prob += pred.prob_at_least(future.size() - 1, kGoal);
      ++arm.predicts;
    }
  }
  arm.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  arm.mean_y /= static_cast<double>(arm.predicts);
  arm.mean_prob /= static_cast<double>(arm.predicts);
  return arm;
}

void print_arm(const char* label, const std::string& steps, const Arm& arm) {
  std::printf("  %-11s %6s %9zu %12.3f %12.3f %18.4f\n", label, steps.c_str(), arm.predicts,
              arm.per_s(), arm.ms(), arm.mean_prob);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_bench_args(argc, argv);
  bench::print_header("tab_mcmc_samples",
                      "§5.2 MCMC budget: 250k vs 70k samples, scalar reference, warm "
                      "reuse, LSQ");

  workload::CifarWorkloadModel model;
  const auto trace = workload::generate_trace(model, 8, /*seed=*/4242);
  const auto& curve = trace.jobs.front().curve.perf;
  const std::size_t scale = options.smoke ? kSmokeFactor : 1;
  const std::size_t full_steps = 2500 / scale;
  const std::size_t reduced_steps = 700 / scale;
  const std::size_t mcmc_rounds = 4;
  const std::size_t lsq_rounds = 40 / scale;
  const std::vector<std::size_t> mcmc_prefixes = {10, 20, 30};
  const std::vector<std::size_t> lsq_prefixes = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};

  std::printf("  %-11s %6s %9s %12s %12s %18s\n", "arm", "steps", "predicts", "predicts/s",
              "ms/predict", "mean P(y120>=0.7)");
  const Arm full = time_arm(*curve::make_mcmc_predictor(mcmc_config(full_steps, true)), curve,
                            mcmc_prefixes, mcmc_rounds, /*pop_shaped=*/false);
  print_arm("250k", std::to_string(full_steps), full);
  const Arm reduced =
      time_arm(*curve::make_mcmc_predictor(mcmc_config(reduced_steps, true)), curve,
               mcmc_prefixes, mcmc_rounds, /*pop_shaped=*/false);
  print_arm("70k", std::to_string(reduced_steps), reduced);
  const Arm scalar =
      time_arm(*curve::make_mcmc_predictor(mcmc_config(reduced_steps, false)), curve,
               mcmc_prefixes, mcmc_rounds, /*pop_shaped=*/false);
  print_arm("70k-scalar", std::to_string(reduced_steps), scalar);
  curve::CachingOptions warm_options;
  warm_options.warm_start = true;
  const curve::CachingPredictor warm_predictor(
      curve::make_mcmc_predictor(mcmc_config(reduced_steps, true)), warm_options);
  const Arm warm = time_arm(warm_predictor, curve, mcmc_prefixes, mcmc_rounds,
                            /*pop_shaped=*/false);
  print_arm("70k-warm", std::to_string(reduced_steps), warm);
  curve::PredictorConfig lsq_config;
  lsq_config.seed = 42;
  const Arm lsq = time_arm(*curve::make_lsq_predictor(lsq_config), curve, lsq_prefixes,
                           lsq_rounds, /*pop_shaped=*/true);
  print_arm("lsq", "-", lsq);

  std::printf("\n  250k vs 70k: %.3f vs %.3f ms per predict, speedup %.2fx (paper: >2x)\n",
              full.ms(), reduced.ms(), full.ms() / reduced.ms());
  std::printf("  70k scalar vs batched: %.3f vs %.3f ms per predict, speedup %.2fx, "
              "mean y(120) %.9f vs %.9f\n",
              scalar.ms(), reduced.ms(), scalar.ms() / reduced.ms(), scalar.mean_y,
              reduced.mean_y);
  std::printf("  70k cold vs warm: %.3f vs %.3f ms per predict, speedup %.2fx, "
              "%zu warm seeds\n",
              reduced.ms(), warm.ms(), reduced.ms() / warm.ms(), warm_predictor.warm_hits());
  std::printf("  lsq: %.1f predicts/s on POP-shaped requests\n", lsq.per_s());

  // Bit-identity on the exact requests just timed (the full contract lives
  // in predictor_equivalence_test).
  if (scalar.mean_y != reduced.mean_y || scalar.mean_prob != reduced.mean_prob) {
    std::printf("\nFAIL: batched posterior diverged from the scalar reference\n");
    return 1;
  }
  return 0;
}
