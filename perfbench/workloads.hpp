// The benchmark's workloads (README.md explains why each was chosen).
#pragma once

#include <string>

#include "report.hpp"

namespace perfbench {

/// pop-lsq, asha-faults, pop-mcmc: sweep cells through core::run_sweep.
[[nodiscard]] bool is_sweep_workload(const std::string& name);
void run_sweep_workload(const Options& options, Report& report);

/// svc-studies: closed-loop clients against an in-process svc::Server.
void run_studies_workload(const Options& options, Report& report);

}  // namespace perfbench
