// Ablation bench: isolates the design choices the paper argues for in §2.
//
//   1. dynamic p_thred vs static thresholds {0.2, 0.5, 0.8}   (§2.2c)
//   2. learning-curve predictor vs instantaneous last-value   (§2.2a)
//   3. with vs without the domain-knowledge kill rule         (§2.1)
//   4. with vs without opportunistic suspend/rotate           (§3.2 / §4)
//
// Each variant reports mean time-to-target over the same repeated CIFAR-10
// experiments (trace-driven simulator, 4 machines).
#include "bench_common.hpp"

#include "core/policies/pop_policy.hpp"

using namespace hyperdrive;

namespace {

core::PopConfig base_config(std::uint64_t seed) {
  core::PopConfig config;
  config.tmax = util::SimTime::hours(48);
  config.predictor = core::make_default_predictor(seed);
  return config;
}

struct Variant {
  std::string label;
  std::function<core::PopConfig(std::uint64_t)> make_config;
};

}  // namespace

int main(int argc, char** argv) {
  const auto bench_options = bench::parse_bench_args(argc, argv);
  bench::print_header("Ablations", "POP design choices (CIFAR-10, 4 machines, 5 repeats)");

  workload::CifarWorkloadModel model;

  std::vector<Variant> variants;
  variants.push_back({"POP (dynamic threshold, full)", base_config});
  for (const double thr : {0.2, 0.5, 0.8}) {
    variants.push_back({"static p_thred = " + std::to_string(thr).substr(0, 3),
                        [thr](std::uint64_t seed) {
                          auto config = base_config(seed);
                          config.static_threshold = thr;
                          return config;
                        }});
  }
  variants.push_back({"instantaneous (last-value) predictor", [](std::uint64_t seed) {
                        auto config = base_config(seed);
                        curve::PredictorConfig pc;
                        pc.seed = seed;
                        config.predictor = std::shared_ptr<const curve::CurvePredictor>(
                            curve::make_last_value_predictor(pc));
                        return config;
                      }});
  variants.push_back({"no kill-threshold domain knowledge", [](std::uint64_t seed) {
                        auto config = base_config(seed);
                        config.use_kill_threshold = false;
                        return config;
                      }});
  variants.push_back({"no opportunistic rotation (no suspend)", [](std::uint64_t seed) {
                        auto config = base_config(seed);
                        config.rotate_opportunistic = false;
                        return config;
                      }});

  core::SweepSpec spec;
  spec.name = "abl_design_choices";
  std::vector<std::string> variant_labels;
  for (const auto& v : variants) variant_labels.push_back(v.label);
  const auto variant_ax = spec.add_axis("variant", variant_labels);
  const auto repeat_ax = spec.add_repeat_axis(bench_options.repeats(5));
  spec.extra_columns = {"predictions"};
  spec.run = [&](const core::SweepCell& cell) {
    const auto trace = bench::suitable_trace(model, 100, 1500 + cell.at(repeat_ax) * 41, 25);
    core::PopPolicy policy(variants[cell.at(variant_ax)].make_config(cell.at(repeat_ax)));
    core::RunnerOptions options;
    options.substrate = core::Substrate::TraceReplay;
    options.machines = 4;
    options.max_experiment_time = util::SimTime::hours(200);
    core::SweepRow row = core::run_experiment(trace, policy, options);
    row.extra = {static_cast<double>(policy.predictions_made())};
    return row;
  };

  const auto table = bench::run_bench_sweep(spec, bench_options);

  const auto mean_of = [&](const std::string& label) {
    const auto rows = table.where("variant", label);
    double minutes = 0.0, predictions = 0.0;
    for (const auto* row : rows) {
      minutes += row->minutes_to_target();
      predictions += row->extra.at(table.extra_column("predictions"));
    }
    const double n = static_cast<double>(rows.size());
    return std::pair<double, double>{minutes / n, predictions / n};
  };

  const auto [full_minutes, full_predictions] = mean_of(variants[0].label);
  std::printf("  %-38s %8.1f min            (baseline, %.0f predictions)\n",
              variants[0].label.c_str(), full_minutes, full_predictions);
  for (std::size_t v = 1; v < variants.size(); ++v) {
    const auto [minutes, predictions] = mean_of(variants[v].label);
    std::printf("  %-38s %8.1f min (%+6.1f%%) (%.0f predictions)\n",
                variants[v].label.c_str(), minutes,
                100.0 * (minutes - full_minutes) / full_minutes, predictions);
  }

  std::printf("\n(positive %% = slower than full POP; each §2 design choice should cost\n"
              " time when removed)\n");
  return 0;
}
