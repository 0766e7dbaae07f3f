// Figure 8: reward of 15 randomly selected LunarLander configurations over
// 20,000 episode trials. Paper: many jobs learn for a while and then
// "learning-crash" to at/below -100 for good; over 50% are non-learning.
#include "bench_common.hpp"

using namespace hyperdrive;

int main(int argc, char** argv) {
  (void)bench::parse_bench_args(argc, argv);  // no sweep: the flags change nothing here
  bench::print_header("Figure 8", "15 random LunarLander configurations, reward vs trials");

  workload::LunarWorkloadModel model;
  const auto trace = workload::generate_trace(model, 15, /*seed=*/907);

  std::printf("config |");
  for (std::size_t e = 10; e <= 100; e += 10) std::printf(" %5zuk", e / 5);
  std::printf("| final\n");

  std::size_t non_learning = 0, crashed = 0;
  for (const auto& job : trace.jobs) {
    std::printf("%6llu |", static_cast<unsigned long long>(job.job_id));
    for (std::size_t e = 10; e <= 100; e += 10) {
      std::printf(" %6.0f", job.curve.denormalize(job.curve.perf.at(e - 1)));
    }
    const double final_raw = job.curve.denormalize(job.curve.final_perf());
    std::printf("| %6.0f\n", final_raw);
    if (final_raw <= -100.0 + 8.0) ++non_learning;
    if (job.curve.denormalize(job.curve.best_perf()) > -20.0 && final_raw <= -100.0) {
      ++crashed;
    }
  }
  std::printf("\n(columns = episode trials in thousands; epoch = 200 trials)\n");
  std::printf("non-learning at the end: %zu of 15 (paper: over 50%%)\n", non_learning);
  std::printf("learning-crashes among them: %zu\n", crashed);
  return 0;
}
