// Node Agent (§4.2 ➅): the per-machine daemon that executes training jobs
// and forwards application statistics to the scheduler.
//
// In this simulated deployment the agent's job-execution mechanics live in
// HyperDriveCluster (which owns the event queue), and learning-curve
// histories live in the AppStatDb, where the predictor reads them. The
// NodeAgent itself carries only the per-machine accounting and heartbeat
// sequencing.
#pragma once

#include <cstddef>
#include <cstdint>

#include "cluster/resource_manager.hpp"
#include "util/sim_time.hpp"

namespace hyperdrive::cluster {

class NodeAgent {
 public:
  explicit NodeAgent(MachineId id) : id_(id) {}

  [[nodiscard]] MachineId id() const noexcept { return id_; }

  // --- execution accounting ----------------------------------------------
  void note_busy(util::SimTime span) noexcept { busy_time_ += span; }
  void note_epoch() noexcept { ++epochs_run_; }
  void note_prediction() noexcept { ++predictions_run_; }
  [[nodiscard]] util::SimTime busy_time() const noexcept { return busy_time_; }
  [[nodiscard]] std::size_t epochs_run() const noexcept { return epochs_run_; }
  [[nodiscard]] std::size_t predictions_run() const noexcept { return predictions_run_; }

  // --- liveness probes (gray-failure detection, DESIGN.md §7) --------------
  /// Sequence number for the next Heartbeat this agent emits (1-based).
  [[nodiscard]] std::uint64_t next_heartbeat_seq() noexcept { return ++heartbeats_sent_; }
  [[nodiscard]] std::uint64_t heartbeats_sent() const noexcept { return heartbeats_sent_; }

 private:
  MachineId id_;
  util::SimTime busy_time_ = util::SimTime::zero();
  std::size_t epochs_run_ = 0;
  std::size_t predictions_run_ = 0;
  std::uint64_t heartbeats_sent_ = 0;
};

}  // namespace hyperdrive::cluster
