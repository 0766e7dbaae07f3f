// hdbench — the repository benchmark's load generator (README.md).
//
//   hdbench --workload NAME --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// Prints a metric table on stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exits 1 when an output
// check failed, 2 on a usage error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "report.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* problem) {
  std::fprintf(stderr,
               "hdbench: %s\nusage: hdbench --workload pop-lsq|asha-faults|pop-mcmc|svc-studies "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n",
               problem);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.workers = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::string(value) == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  if (options.seconds <= 0.0) return usage("--seconds must be positive");
  const bool sweep = perfbench::is_sweep_workload(options.workload);
  if (!sweep && options.workload != "svc-studies") return usage("unknown workload");
  std::filesystem::create_directories(options.work_dir);

  perfbench::Report report(options.trace);
  try {
    if (sweep) {
      perfbench::run_sweep_workload(options, report);
    } else {
      perfbench::run_studies_workload(options, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hdbench: %s\n", e.what());
    return 1;
  }
  report.print();
  return report.correct() ? 0 : 1;
}
