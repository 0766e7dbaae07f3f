// Figure 2a: CDF of final validation accuracy across 90 randomly selected
// CIFAR-10 configurations. The paper's red-circle annotation: 32% of
// configurations are at or below the 10% random-guess accuracy.
#include "bench_common.hpp"

using namespace hyperdrive;

int main(int argc, char** argv) {
  (void)bench::parse_bench_args(argc, argv);  // no sweep: the flags change nothing here
  bench::print_header("Figure 2a", "final-accuracy CDF of 90 random CIFAR-10 configs");

  workload::CifarWorkloadModel model;
  const auto trace = workload::generate_trace(model, 90, /*seed=*/90210);

  std::vector<double> finals;
  for (const auto& job : trace.jobs) finals.push_back(job.curve.final_perf());
  const util::Ecdf ecdf(finals);

  std::printf("final_accuracy  cdf\n");
  for (double x = 0.05; x <= 0.85 + 1e-9; x += 0.05) {
    std::printf("      %.2f      %.3f\n", x, ecdf.eval(x));
  }

  const double at_random = ecdf.eval(0.105);
  std::printf("\nfraction at/below random accuracy (10%%): %.1f%% (paper: 32%%)\n",
              100.0 * at_random);
  std::printf("fraction above 75%%: %.1f%%\n", 100.0 * (1.0 - ecdf.eval(0.75)));
  return 0;
}
