// Shared helpers for the figure-reproduction benches. Each bench binary
// regenerates the data behind one figure/table of the paper and prints it as
// labelled text series (the repository's equivalent of the plots). Every
// repeated experiment grid is a core::SweepSpec whose `run` closure builds a
// cell's trace, policy and RunnerOptions and calls core::run_experiment; it
// runs through core::run_sweep (src/core). Every bench parses one
// cli::Options flag table:
//   --jobs N      sweep worker threads (default: hardware concurrency)
//   --csv PATH    write the SweepTable as CSV (EXPERIMENTS.md schema)
//   --out PATH    perf benches: where the BENCH_*.json record goes
//   --smoke       tiny-repeat run for the bench_smoke CTest label
// Benches without a sweep accept the same flags, so a typo or a bad value is
// rejected everywhere.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/experiment_runner.hpp"
#include "core/policy_registry.hpp"
#include "core/sweep_engine.hpp"
#include "util/cli_options.hpp"
#include "util/stats.hpp"
#include "workload/cifar_model.hpp"
#include "workload/lunar_model.hpp"
#include "workload/trace.hpp"
#include "workload/trace_tools.hpp"

namespace hyperdrive::bench {

// Trace helpers live in src/workload (library code with unit tests);
// re-exported here so the bench sources read naturally.
using workload::first_winner_index;
using workload::reachable_trace;
using workload::renoise;
using workload::suitable_trace;

inline const std::vector<std::string>& evaluated_policies() {
  static const std::vector<std::string> names = {"pop", "bandit", "earlyterm"};
  return names;
}

inline const std::vector<std::string>& all_policies() {
  static const std::vector<std::string> names = {"pop", "bandit", "earlyterm",
                                                 "default"};
  return names;
}

/// Common bench command line (see header comment).
struct BenchOptions {
  std::size_t jobs = 0;  ///< sweep threads; 0 = hardware concurrency
  std::string csv;       ///< write the sweep table here when non-empty
  std::string out;       ///< perf_* benches: override the BENCH_*.json path
  bool smoke = false;    ///< CTest smoke mode: shrink repeat counts

  /// Repeats to run: the figure's count, or at most 2 under --smoke.
  [[nodiscard]] std::size_t repeats(std::size_t figure_repeats) const {
    return smoke && figure_repeats > 2 ? 2 : figure_repeats;
  }
};

/// Parse the common bench flags; prints a diagnostic and exits 2 on an
/// unknown flag or a bad value, and prints the generated help on --help.
inline BenchOptions parse_bench_args(int argc, char** argv) {
  BenchOptions options;
  const std::string program = argc > 0 ? argv[0] : "bench";
  cli::Options flags(program.substr(program.find_last_of('/') + 1),
                     "reproduce one figure or table of the paper's evaluation");
  flags.bind("--jobs", "N", "sweep worker threads, 0 = all cores  [0]", options.jobs);
  flags.bind("--csv", "PATH", "write the sweep table as CSV", options.csv);
  flags.bind("--out", "PATH", "perf benches: write the BENCH_*.json record here",
             options.out);
  flags.add_flag("--smoke", "tiny-repeat run for the bench_smoke CTest label",
                 options.smoke);
  if (!flags.parse(argc, argv)) std::exit(2);
  return options;
}

/// Run the sweep on the requested worker count, print the engine timing
/// line, and honor --csv. Every bench's grid goes through here.
inline core::SweepTable run_bench_sweep(const core::SweepSpec& spec,
                                        const BenchOptions& options) {
  auto table = core::run_sweep(spec, options.jobs);
  std::printf("[sweep] %s: %zu cells on %zu threads in %.2f s\n", table.name.c_str(),
              table.rows.size(), table.threads, table.wall_seconds);
  if (!options.csv.empty()) {
    table.save_csv_file(options.csv);
    std::printf("[sweep] table written to %s\n", options.csv.c_str());
  }
  return table;
}

inline void print_header(const std::string& id, const std::string& what) {
  std::printf("\n=============================================================\n");
  std::printf("%s — %s\n", id.c_str(), what.c_str());
  std::printf("=============================================================\n");
}

/// Print a five-number box-plot summary line (what Fig. 7 / Fig. 9 plot).
inline void print_box(const std::string& label, const std::vector<double>& xs,
                      const std::string& unit) {
  const auto b = util::box_stats(xs);
  std::printf("  %-10s min=%7.1f q1=%7.1f med=%7.1f q3=%7.1f max=%7.1f mean=%7.1f %s\n",
              label.c_str(), b.min, b.q1, b.median, b.q3, b.max, b.mean, unit.c_str());
}

/// Print an ECDF as fixed quantiles.
inline void print_ecdf(const std::string& label, const std::vector<double>& xs,
                       const std::string& unit) {
  if (xs.empty()) {
    std::printf("  %-10s (no samples)\n", label.c_str());
    return;
  }
  const util::Ecdf ecdf(xs);
  std::printf("  %-10s", label.c_str());
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0}) {
    std::printf(" p%-3.0f=%-8.2f", q * 100, ecdf.quantile(q));
  }
  std::printf("[%s]\n", unit.c_str());
}

}  // namespace hyperdrive::bench
