// Related-work comparison (§8): POP vs HyperBand-style asynchronous
// successive halving [21] on the CIFAR-10 workload. The paper positions
// HyperBand as a sequential-execution technique and POP as exploiting the
// spatial (multi-machine) dimension with prediction-based confidence; here
// both run on the same parallel substrate so the difference is purely the
// decision rule (rank-at-budget vs predicted-probability-of-target).
#include "bench_common.hpp"

#include "core/policies/hyperband_policy.hpp"
#include "core/policies/pop_policy.hpp"

using namespace hyperdrive;

int main(int argc, char** argv) {
  const auto bench_options = bench::parse_bench_args(argc, argv);
  bench::print_header("Comparison §8", "POP vs HyperBand-style successive halving");

  workload::CifarWorkloadModel model;

  struct Variant {
    std::string label;
    std::function<std::unique_ptr<core::SchedulingPolicy>(std::uint64_t)> make;
  };
  std::vector<Variant> variants;
  variants.push_back({"pop", [](std::uint64_t r) -> std::unique_ptr<core::SchedulingPolicy> {
                        core::PopConfig config;
                        config.tmax = util::SimTime::hours(96);
                        config.predictor = core::make_default_predictor(r);
                        return std::make_unique<core::PopPolicy>(config);
                      }});
  variants.push_back(
      {"hyperband eta=3", [](std::uint64_t) -> std::unique_ptr<core::SchedulingPolicy> {
         core::HyperbandConfig config;
         config.eta = 3.0;
         return std::make_unique<core::HyperbandPolicy>(config);
       }});
  variants.push_back(
      {"hyperband eta=2", [](std::uint64_t) -> std::unique_ptr<core::SchedulingPolicy> {
         core::HyperbandConfig config;
         config.eta = 2.0;
         return std::make_unique<core::HyperbandPolicy>(config);
       }});
  variants.push_back(
      {"hyperband 3 brackets", [](std::uint64_t) -> std::unique_ptr<core::SchedulingPolicy> {
         core::HyperbandConfig config;
         config.eta = 3.0;
         config.num_brackets = 3;
         return std::make_unique<core::HyperbandPolicy>(config);
       }});

  core::SweepSpec spec;
  spec.name = "cmp_hyperband";
  std::vector<std::string> variant_labels;
  for (const auto& v : variants) variant_labels.push_back(v.label);
  const auto variant_ax = spec.add_axis("variant", variant_labels);
  const auto repeat_ax = spec.add_repeat_axis(bench_options.repeats(5));
  spec.run = [&](const core::SweepCell& cell) {
    const auto trace = bench::suitable_trace(model, 100, 2600 + cell.at(repeat_ax) * 43, 25);
    const auto policy = variants[cell.at(variant_ax)].make(cell.at(repeat_ax));
    core::RunnerOptions options;
    options.substrate = core::Substrate::TraceReplay;
    options.machines = 4;
    options.max_experiment_time = util::SimTime::hours(200);
    return core::run_experiment(trace, *policy, options);
  };

  const auto table = bench::run_bench_sweep(spec, bench_options);

  for (const auto& variant : variants) {
    bench::print_box(variant.label, table.minutes_where("variant", variant.label), "min");
  }
  std::printf("\n(POP's prediction-based confidence should beat rank-at-budget when\n"
              " good configurations start slow — the Fig. 2b overtake regime)\n");
  return 0;
}
