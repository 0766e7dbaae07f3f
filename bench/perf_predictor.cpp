// perf_predictor: single-cell predictor throughput, the hot path of every
// sweep cell (ROADMAP item 1). Times the paper-setting MCMC predictor
// (11 families, nwalkers=100, nsamples=700) on fig07 CIFAR prefixes through
// three configurations:
//
//   scalar   the generic CurveEnsemble reference path (batched_kernel off)
//   batched  the fused BatchEvaluator kernels (the default)
//   warm     batched + warm posterior reuse across the growing prefix
//
// plus the LSQ predictor that schedules POP's sweep cells, on POP-shaped
// requests (prefixes 10, 20, ..., 100; every future epoch n+1..120), and
// records the trajectory in BENCH_predictor.json (schema: EXPERIMENTS.md).
// The acceptance bar for the MCMC fast path is speedup_batched >= 5x with
// the equivalence suite proving bit-identity.
#include "bench_common.hpp"
#include "bench_json.hpp"

#include <chrono>

#include "curve/caching_predictor.hpp"
#include "curve/predictor.hpp"

using namespace hyperdrive;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

curve::PredictorConfig paper_config(bool batched, bool smoke) {
  curve::PredictorConfig config;
  config.mcmc.nwalkers = 100;  // full 11-family ensemble: dim 48, >= 96 walkers
  config.mcmc.nsamples = smoke ? 120 : 700;
  config.mcmc.burn_in = smoke ? 40 : 250;
  config.mcmc.thin = 5;
  config.seed = 42;
  config.batched_kernel = batched;
  return config;
}

/// One "cell" of predictor work: fits on a growing prefix of the same curve
/// (epochs 10, 20, 30), the request pattern POP issues at evaluation
/// boundaries. Returns predictions/s.
double time_predicts(const curve::CurvePredictor& predictor,
                     const std::vector<double>& full_curve, std::size_t repeats,
                     double* out_mean) {
  const std::vector<double> future = {120.0};
  const auto t0 = std::chrono::steady_clock::now();
  double acc = 0.0;
  std::size_t n = 0;
  for (std::size_t r = 0; r < repeats; ++r) {
    for (const std::size_t prefix : {10u, 20u, 30u}) {
      std::vector<double> history(full_curve.begin(), full_curve.begin() + prefix);
      // Perturb the first epoch per repeat: every repeat is a fresh curve to
      // the prediction cache, while the 10/20/30 prefixes within one repeat
      // still share prefix hashes (what warm-start keys on).
      history.front() += 1e-9 * static_cast<double>(r + 1);
      const auto pred = predictor.predict(history, future, 120.0);
      acc += pred.mean_at(0);
      ++n;
    }
  }
  const double elapsed = seconds_since(t0);
  if (out_mean != nullptr) *out_mean = acc / static_cast<double>(n);
  return static_cast<double>(n) / elapsed;
}

/// POP-shaped LSQ requests: each prefix 10, 20, ..., 100 of the curve asks
/// for every future epoch n+1..120, as POP's expected-remaining-time pmf
/// does at an evaluation boundary. Returns predictions/s.
double time_lsq_predicts(const curve::CurvePredictor& predictor,
                         const std::vector<double>& full_curve, std::size_t repeats) {
  constexpr std::size_t kMaxEpoch = 120;
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t n = 0;
  for (std::size_t r = 0; r < repeats; ++r) {
    for (std::size_t prefix = 10; prefix <= 100; prefix += 10) {
      std::vector<double> history(full_curve.begin(),
                                  full_curve.begin() + static_cast<std::ptrdiff_t>(prefix));
      history.front() += 1e-9 * static_cast<double>(r + 1);  // a fresh curve per repeat
      std::vector<double> future;
      for (std::size_t e = prefix + 1; e <= kMaxEpoch; ++e) {
        future.push_back(static_cast<double>(e));
      }
      (void)predictor.predict(history, future, static_cast<double>(kMaxEpoch));
      ++n;
    }
  }
  return static_cast<double>(n) / seconds_since(t0);
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_bench_args(argc, argv);
  bench::print_header("perf_predictor",
                      "single-cell predictor throughput: MCMC scalar vs batched vs warm, LSQ");

  workload::CifarWorkloadModel model;
  const auto trace = workload::generate_trace(model, 8, /*seed=*/4242);
  const auto& curve_data = trace.jobs.front().curve.perf;
  const std::size_t repeats = options.smoke ? 1 : 4;

  const auto wall0 = std::chrono::steady_clock::now();

  double mean_scalar = 0.0, mean_batched = 0.0;
  const auto scalar = curve::make_mcmc_predictor(paper_config(false, options.smoke));
  const double scalar_per_s = time_predicts(*scalar, curve_data, repeats, &mean_scalar);
  std::printf("  scalar:  %8.3f predicts/s\n", scalar_per_s);

  const auto batched = curve::make_mcmc_predictor(paper_config(true, options.smoke));
  const double batched_per_s = time_predicts(*batched, curve_data, repeats, &mean_batched);
  std::printf("  batched: %8.3f predicts/s  (speedup %.2fx)\n", batched_per_s,
              batched_per_s / scalar_per_s);

  curve::CachingOptions copts;
  copts.warm_start = true;
  const auto warm = std::make_shared<curve::CachingPredictor>(
      curve::make_mcmc_predictor(paper_config(true, options.smoke)), copts);
  const double warm_per_s = time_predicts(*warm, curve_data, repeats, nullptr);
  std::printf("  warm:    %8.3f predicts/s  (speedup %.2fx, %zu warm seeds)\n",
              warm_per_s, warm_per_s / scalar_per_s, warm->warm_hits());

  curve::PredictorConfig lsq_config;
  lsq_config.seed = 42;
  const auto lsq = curve::make_lsq_predictor(lsq_config);
  const std::size_t lsq_repeats = options.smoke ? 3 : 40;
  const double lsq_per_s = time_lsq_predicts(*lsq, curve_data, lsq_repeats);
  std::printf("  lsq:     %8.3f predicts/s  (POP-shaped, prefixes 10..100)\n", lsq_per_s);

  // Bit-identity sanity on the exact workload just timed (the full contract
  // lives in predictor_equivalence_test).
  if (mean_scalar != mean_batched) {
    std::printf("\nFAIL: batched posterior mean diverged from scalar\n");
    return 1;
  }

  bench::BenchJson json("perf_predictor");
  json.set("wall_ms", 1000.0 * seconds_since(wall0));
  json.set("scalar_predicts_per_s", scalar_per_s);
  json.set("batched_predicts_per_s", batched_per_s);
  json.set("warm_predicts_per_s", warm_per_s);
  json.set("speedup_batched", batched_per_s / scalar_per_s);
  json.set("speedup_warm", warm_per_s / scalar_per_s);
  json.set("lsq_predicts_per_s", lsq_per_s);
  json.set_count("nwalkers", 100);
  json.set_count("nsamples", options.smoke ? 120 : 700);
  json.set_count("repeats", repeats);
  json.set_count("smoke", options.smoke ? 1 : 0);
  json.write_file(options.out.empty() ? "BENCH_predictor.json" : options.out);

  std::printf("\nspeedup (batched vs scalar): %.2fx (bar: >= 5x at the paper setting)\n",
              batched_per_s / scalar_per_s);
  return 0;
}
