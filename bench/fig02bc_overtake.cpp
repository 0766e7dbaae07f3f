// Figure 2b/2c: the overtake phenomenon and why instantaneous accuracy (or
// a point prediction without confidence) misleads.
//
//   2b: two configurations A and B where A leads before ~epoch 50 but B has
//       the better final accuracy.
//   2c: at epoch 10, the probabilistic predictor's view of both: expected
//       final accuracy and its confidence band (posterior stddev = the
//       paper's "prediction accuracy PA").
#include "bench_common.hpp"

#include "curve/predictor.hpp"

using namespace hyperdrive;

int main(int argc, char** argv) {
  (void)bench::parse_bench_args(argc, argv);  // no sweep: the flags change nothing here
  bench::print_header("Figure 2b", "overtake: A leads early, B wins finally");

  workload::CifarWorkloadModel model;
  // Search a population for the clearest overtake pair among decent configs.
  const auto trace = workload::generate_trace(model, 400, /*seed=*/1313);
  const workload::TraceJob* a = nullptr;
  const workload::TraceJob* b = nullptr;
  double best_gap = 0.0;
  for (const auto& ja : trace.jobs) {
    if (ja.curve.final_perf() < 0.45) continue;
    for (const auto& jb : trace.jobs) {
      if (jb.curve.final_perf() < 0.45) continue;
      const double early_lead = ja.curve.perf.at(19) - jb.curve.perf.at(19);
      const double final_deficit = jb.curve.final_perf() - ja.curve.final_perf();
      if (early_lead > 0.02 && final_deficit > 0.02) {
        const double gap = early_lead + final_deficit;
        if (gap > best_gap) {
          best_gap = gap;
          a = &ja;
          b = &jb;
        }
      }
    }
  }
  if (a == nullptr) {
    std::printf("no overtake pair found (population too small)\n");
    return 1;
  }

  std::printf("epoch   cfg_A   cfg_B\n");
  for (std::size_t e = 10; e <= 120; e += 10) {
    std::printf("%5zu   %.3f   %.3f\n", e, a->curve.perf.at(e - 1), b->curve.perf.at(e - 1));
  }
  std::printf("final:  A=%.3f  B=%.3f  (A job %llu, B job %llu)\n", a->curve.final_perf(),
              b->curve.final_perf(), static_cast<unsigned long long>(a->job_id),
              static_cast<unsigned long long>(b->job_id));

  bench::print_header("Figure 2c", "predicted final accuracy +- PA at epoch 10");

  curve::PredictorConfig config;
  // Full 11-family ensemble is 48-dim: the Goodman–Weare constraint
  // (even, >= 2 * dim) needs at least 96 walkers.
  config.mcmc.nwalkers = 100;
  config.mcmc.nsamples = 400;
  config.mcmc.burn_in = 150;
  config.mcmc.thin = 5;
  config.seed = 99;
  const auto predictor = curve::make_mcmc_predictor(config);

  const std::vector<double> horizon = {120.0};
  for (const auto* job : {a, b}) {
    std::vector<double> prefix(job->curve.perf.begin(), job->curve.perf.begin() + 10);
    const auto pred = predictor->predict(prefix, horizon, 120.0);
    std::printf("  config %llu: predicted final = %.3f +- %.3f (PA), measured final = %.3f,"
                " P(>= 0.77) = %.2f\n",
                static_cast<unsigned long long>(job->job_id), pred.mean_at(0),
                pred.stddev_at(0), job->curve.final_perf(), pred.prob_at_least(0, 0.77));
  }
  std::printf("\n(the early leader's prediction carries no guarantee: confidence bands\n"
              " at epoch 10 overlap, which is exactly why POP tracks confidence)\n");
  return 0;
}
