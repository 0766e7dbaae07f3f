// §6.2.3 (in-text table): CIFAR-10 scheduling overhead under POP.
// Paper: suspend latency avg 157.69 ms (sigma 72 ms, p95 219 ms, max 1.12 s);
// snapshot size avg 357.67 KB (sigma 122.46 KB, p95 685.26 KB, max 686.06 KB);
// overheads have negligible impact on end-to-end performance.
#include "bench_common.hpp"

using namespace hyperdrive;

int main(int argc, char** argv) {
  const auto bench_options = bench::parse_bench_args(argc, argv);
  bench::print_header("Table §6.2.3", "CIFAR-10 suspend/resume overhead under POP");

  workload::CifarWorkloadModel model;

  core::SweepSpec spec;
  spec.name = "tab_overhead_cifar";
  // "real" runs the default overhead model; "zero" the same experiments with
  // free suspends, to quantify the end-to-end cost.
  const auto overheads_ax = spec.add_axis("overheads", {"real", "zero"});
  const auto repeat_ax = spec.add_repeat_axis(bench_options.repeats(10));
  spec.trace = [&](const core::SweepCell& cell) {
    return bench::reachable_trace(model, 100, 800 + cell.at(repeat_ax) * 19);
  };
  spec.policy = [&](const core::SweepCell& cell) {
    return core::make_standard_policy("pop", cell.at(repeat_ax));
  };
  spec.options = [&](const core::SweepCell& cell) {
    core::RunnerOptions options;
    options.machines = 4;
    options.substrate = core::Substrate::Cluster;
    options.seed = cell.at(repeat_ax);
    options.max_experiment_time = util::SimTime::hours(96);
    if (cell.at(overheads_ax) == 1) options.overheads = cluster::zero_overhead_model();
    return options;
  };

  const auto table = bench::run_bench_sweep(spec, bench_options);

  std::vector<double> latencies_ms, sizes_kb;
  double with_overhead_min = 0.0, without_overhead_min = 0.0;
  for (const auto& row : table.rows) {
    if (table.label(row, "overheads") == "real") {
      for (const auto& s : row.result.suspend_samples) {
        latencies_ms.push_back(s.latency.to_milliseconds());
        sizes_kb.push_back(s.snapshot_bytes / 1e3);
      }
      with_overhead_min += row.result.time_to_target.to_minutes();
    } else {
      without_overhead_min += row.result.time_to_target.to_minutes();
    }
  }

  if (latencies_ms.empty()) {
    std::printf("no suspends occurred\n");
    return 1;
  }
  std::printf("suspend latency: avg=%.2f ms sigma=%.2f p95=%.2f max=%.2f "
              "(paper: 157.69 / 72 / 219 / 1120)\n",
              util::mean(latencies_ms), util::stddev(latencies_ms),
              util::percentile(latencies_ms, 95), util::max_of(latencies_ms));
  std::printf("snapshot size:   avg=%.2f KB sigma=%.2f p95=%.2f max=%.2f "
              "(paper: 357.67 / 122.46 / 685.26 / 686.06)\n",
              util::mean(sizes_kb), util::stddev(sizes_kb), util::percentile(sizes_kb, 95),
              util::max_of(sizes_kb));
  std::printf("suspend events observed: %zu\n", latencies_ms.size());
  const double slowdown =
      without_overhead_min > 0 ? (with_overhead_min / without_overhead_min - 1.0) * 100.0
                               : 0.0;
  std::printf("end-to-end cost of overheads: %.2f%% (paper: negligible)\n", slowdown);
  return 0;
}
