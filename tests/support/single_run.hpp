// Single-run owner for tests that inspect a cluster after its run (AppStatDb,
// node agents, bus and fault counters): the steps of
// cluster::run_cluster_experiment on a simulation and cluster the test keeps.
#pragma once

#include "cluster/cluster.hpp"
#include "core/experiment_result.hpp"
#include "core/sap.hpp"
#include "sim/simulation.hpp"

namespace hyperdrive {

/// Start `cluster` (built on `simulation`) under `policy`, run the clock
/// until the cluster finishes, and collect the result.
inline core::ExperimentResult run_to_end(sim::Simulation& simulation,
                                         cluster::HyperDriveCluster& cluster,
                                         core::SchedulingPolicy& policy) {
  cluster.on_finished = [&simulation] { simulation.stop(); };
  cluster.start(policy);
  simulation.run();
  return cluster.collect();
}

}  // namespace hyperdrive
