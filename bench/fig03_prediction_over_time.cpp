// Figure 3: predicted vs measured validation-accuracy curves at different
// points of training (epoch 10, epoch 30, final). Early predictions carry
// little confidence; by epoch 30 the posterior has tightened around the
// measured trajectory.
#include "bench_common.hpp"

#include <cmath>

#include "curve/predictor.hpp"

using namespace hyperdrive;

int main(int argc, char** argv) {
  (void)bench::parse_bench_args(argc, argv);  // no sweep: the flags change nothing here
  bench::print_header("Figure 3",
                      "prediction mean +- stddev at epoch 10 / 30 vs measured final");

  workload::CifarWorkloadModel model;
  const auto trace = workload::generate_trace(model, 40, /*seed=*/333);

  curve::PredictorConfig config;
  // Full 11-family ensemble is 48-dim: the Goodman–Weare constraint
  // (even, >= 2 * dim) needs at least 96 walkers.
  config.mcmc.nwalkers = 100;
  config.mcmc.nsamples = 400;
  config.mcmc.burn_in = 150;
  config.mcmc.thin = 5;
  config.seed = 3;
  const auto predictor = curve::make_mcmc_predictor(config);
  const std::vector<double> horizon = {120.0};

  std::printf("job   measured@120 | pred@10 (+-PA)   | pred@30 (+-PA)\n");
  double pa10_total = 0.0, pa30_total = 0.0;
  double err10_total = 0.0, err30_total = 0.0;
  std::size_t counted = 0;
  for (const auto& job : trace.jobs) {
    if (job.curve.final_perf() < 0.2) continue;  // plot learners, like the paper
    if (counted == 8) break;
    std::vector<double> p10(job.curve.perf.begin(), job.curve.perf.begin() + 10);
    std::vector<double> p30(job.curve.perf.begin(), job.curve.perf.begin() + 30);
    const auto pred10 = predictor->predict(p10, horizon, 120.0);
    const auto pred30 = predictor->predict(p30, horizon, 120.0);
    std::printf("%3llu      %.3f     |  %.3f (+-%.3f) |  %.3f (+-%.3f)\n",
                static_cast<unsigned long long>(job.job_id), job.curve.final_perf(),
                pred10.mean_at(0), pred10.stddev_at(0), pred30.mean_at(0),
                pred30.stddev_at(0));
    pa10_total += pred10.stddev_at(0);
    pa30_total += pred30.stddev_at(0);
    err10_total += std::abs(pred10.mean_at(0) - job.curve.final_perf());
    err30_total += std::abs(pred30.mean_at(0) - job.curve.final_perf());
    ++counted;
  }

  if (counted > 0) {
    const double n = static_cast<double>(counted);
    std::printf("\nmean |error|: epoch 10 = %.3f, epoch 30 = %.3f (should shrink)\n",
                err10_total / n, err30_total / n);
    std::printf("mean PA:      epoch 10 = %.3f, epoch 30 = %.3f (should shrink)\n",
                pa10_total / n, pa30_total / n);
  }
  return 0;
}
