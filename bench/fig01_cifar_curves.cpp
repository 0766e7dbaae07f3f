// Figure 1: validation accuracy of 50 randomly selected CIFAR-10
// configurations as a function of training iterations. The paper's headline
// observations: only ~3 of 50 exceed 75% accuracy, the majority never escape
// ~20%, and each configuration needs ~120 iterations of ~1 minute.
#include "bench_common.hpp"

using namespace hyperdrive;

int main(int argc, char** argv) {
  (void)bench::parse_bench_args(argc, argv);  // no sweep: the flags change nothing here
  bench::print_header("Figure 1", "50 random CIFAR-10 configurations, accuracy vs epoch");

  workload::CifarWorkloadModel model;
  const auto trace = workload::generate_trace(model, 50, /*seed=*/20170907);

  std::printf("config |");
  for (std::size_t e = 10; e <= 120; e += 10) std::printf(" e%-4zu", e);
  std::printf("| final  best\n");

  std::size_t over75 = 0, under20 = 0;
  double total_minutes = 0.0;
  for (const auto& job : trace.jobs) {
    std::printf("%6llu |", static_cast<unsigned long long>(job.job_id));
    for (std::size_t e = 10; e <= 120; e += 10) {
      std::printf(" %.3f", job.curve.perf.at(e - 1));
    }
    std::printf("| %.3f %.3f\n", job.curve.final_perf(), job.curve.best_perf());
    if (job.curve.best_perf() > 0.75) ++over75;
    if (job.curve.final_perf() < 0.20) ++under20;
    total_minutes +=
        job.curve.epoch_duration.to_minutes() * static_cast<double>(job.curve.max_epochs());
  }

  std::printf("\nsummary:\n");
  std::printf("  configurations exceeding 75%% accuracy: %zu of 50 (paper: 3 of 50)\n",
              over75);
  std::printf("  configurations never exceeding 20%%:    %zu of 50 (paper: majority)\n",
              under20);
  std::printf("  total compute to explore all 50:       %.1f days (paper: >4 days)\n",
              total_minutes / 60.0 / 24.0);
  return 0;
}
