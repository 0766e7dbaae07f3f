// Shared helpers for the figure-reproduction benches. Each bench binary
// regenerates the data behind one figure/table of the paper and prints it as
// labelled text series (the repository's equivalent of the plots). Every
// repeated experiment grid runs through the SweepEngine (src/core), so all
// benches accept:
//   --jobs N      sweep worker threads (default: hardware concurrency)
//   --csv PATH    write the SweepTable as CSV (EXPERIMENTS.md schema)
//   --smoke       tiny-repeat run for the bench_smoke CTest label
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/experiment_runner.hpp"
#include "core/policy_registry.hpp"
#include "core/sweep_engine.hpp"
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

inline BenchOptions parse_bench_args(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--jobs") {
      options.jobs = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--csv") {
      options.csv = next();
    } else if (arg == "--out") {
      options.out = next();
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("bench options: [--jobs N] [--csv PATH] [--out PATH] [--smoke]\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown bench option: %s (try --help)\n", arg.c_str());
      std::exit(2);
    }
  }
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
