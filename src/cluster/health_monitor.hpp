// Node-health tracking for gray (fail-slow) failures.
//
// Fail-stop faults announce themselves: a crashed node's endpoint goes down
// and every in-flight RPC to it dies. Gray failures do not — a degraded node
// keeps answering RPCs, just slowly, so a job hosted there looks like a Poor
// configuration and POP kills it, corrupting the *exploration result* rather
// than merely the schedule. The HealthMonitor turns raw liveness and timing
// signals into a per-node health verdict the scheduler can act on:
//
//   * every NodeAgent emits periodic Heartbeat messages (fire-and-forget —
//     a lost probe is itself signal, so retransmitting one would be
//     self-defeating); a node that misses `watchdog_intervals` consecutive
//     beats is declared Suspect, and one that stays silent twice that long
//     is quarantined;
//   * every completed epoch updates an EWMA *speed score* — the ratio of the
//     expected to the observed epoch duration, 1.0 = nominal — and
//     `quarantine_strikes` consecutive slow epochs quarantine the node;
//   * quarantined nodes re-enter via probation: after `probation_after` the
//     node is put back online and must complete `reinstate_epochs` epochs at
//     nominal speed to be reinstated; one slow probation epoch re-quarantines
//     it (this is what defeats flapping degradation).
//
// The monitor is deliberately simulation-free: it consumes (machine, time,
// duration) observations and returns verdicts, so its state machine is unit
// testable without a cluster. All mutation is driven by the single-threaded
// event loop; determinism follows from the inputs being deterministic.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "cluster/resource_manager.hpp"
#include "core/sap.hpp"
#include "util/sim_time.hpp"

namespace hyperdrive::cluster {

/// Quarantine state machine (DESIGN.md §7 has the full diagram):
/// Healthy -> Suspect (missed heartbeats) -> Healthy (beat resumes) or
/// Quarantined (still silent / hang detected); Healthy -> Quarantined
/// (consecutive slow epochs); Quarantined -> Probation (timer) ->
/// Healthy (nominal-speed epochs) or back to Quarantined (still slow).
enum class NodeHealth { Healthy, Suspect, Quarantined, Probation };

[[nodiscard]] std::string_view to_string(NodeHealth health) noexcept;

/// Heartbeat payload (MessageType::Heartbeat), agent -> scheduler.
struct Heartbeat {
  MachineId machine = 0;
  std::uint64_t seq = 0;
  std::size_t epochs_run = 0;
  util::SimTime sent_at = util::SimTime::zero();
};

/// EWMA smoothing for the speed score (higher = reacts faster).
inline constexpr double kSpeedEwmaAlpha = 0.4;
/// A job whose epoch exceeds this many times its expected duration is
/// presumed hung: the progress deadline fires and the job is migrated.
inline constexpr double kHangDeadlineFactor = 6.0;

struct HealthOptions {
  /// Master switch: off = no heartbeats, no watchdog, no quarantine, no
  /// speed normalization — byte-for-byte the pre-health cluster.
  bool enabled = false;
  util::SimTime heartbeat_interval = util::SimTime::seconds(10.0);
  /// Missed consecutive heartbeats before a node is declared Suspect; a node
  /// silent for twice this long escalates Suspect -> Quarantined.
  std::size_t watchdog_intervals = 3;
  /// Consecutive slow epochs (speed score below
  /// core::SchedulerOps::kSlowHostSpeed) before quarantine.
  std::size_t quarantine_strikes = 3;
  /// How long a quarantined node sits out before probation.
  util::SimTime probation_after = util::SimTime::minutes(20.0);
  /// Nominal-speed epochs a probation node must complete to be reinstated.
  std::size_t reinstate_epochs = 2;
};

struct HealthStats {
  std::uint64_t heartbeats_received = 0;
  std::uint64_t suspects_declared = 0;
  std::uint64_t suspects_recovered = 0;
  std::uint64_t slow_strikes = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t probations = 0;
  std::uint64_t reinstatements = 0;
};

class HealthMonitor {
 public:
  /// Verdict returned by note_epoch: what the caller must do about the node.
  enum class Transition { None, Quarantine, Reinstate };

  struct WatchdogReport {
    std::vector<MachineId> newly_suspect;
    /// Suspect nodes silent past the escalation deadline; the caller
    /// quarantines them (migrating their jobs) and calls force_quarantine.
    std::vector<MachineId> to_quarantine;
  };

  HealthMonitor(std::size_t machines, HealthOptions options);

  [[nodiscard]] const HealthOptions& options() const noexcept { return options_; }
  [[nodiscard]] const HealthStats& stats() const noexcept { return stats_; }

  /// A heartbeat arrived. Refreshes liveness; a Suspect node recovers.
  void note_heartbeat(const Heartbeat& beat, util::SimTime now);

  /// An epoch with expected duration `expected` completed on `machine` after
  /// `observed` simulated time. Updates the EWMA speed score, counts slow
  /// strikes, and drives probation; an epoch completion also counts as a
  /// liveness signal.
  [[nodiscard]] Transition note_epoch(MachineId machine, util::SimTime expected,
                                      util::SimTime observed, util::SimTime now);

  /// Periodic watchdog sweep: declares silent nodes Suspect and reports the
  /// ones silent long enough to quarantine. Excluded (crashed/offline) and
  /// already-quarantined nodes are skipped.
  [[nodiscard]] WatchdogReport watchdog_scan(util::SimTime now);

  /// Quarantine immediately (watchdog escalation or a hung-job detection).
  /// No-op if the node is already Quarantined.
  void force_quarantine(MachineId machine);

  /// Quarantined -> Probation: the node is about to come back online and must
  /// prove itself. Resets the probation ledger and the liveness clock.
  void begin_probation(MachineId machine, util::SimTime now);

  /// Exclude a node from watchdog scrutiny (it crashed — that is the fail-stop
  /// machinery's problem). Un-excluding resets the liveness clock so a node
  /// is never Suspect the instant it restarts.
  void set_excluded(MachineId machine, bool excluded, util::SimTime now);

  [[nodiscard]] NodeHealth health(MachineId machine) const;
  [[nodiscard]] bool is_excluded(MachineId machine) const { return node(machine).excluded; }
  /// EWMA speed score in (0, ~1]; 1.0 = nominal speed. Starts optimistic.
  [[nodiscard]] double speed_score(MachineId machine) const;
  /// Below the slow-host threshold (the "treat as degraded" predicate).
  [[nodiscard]] bool degraded(MachineId machine) const {
    return speed_score(machine) < core::SchedulerOps::kSlowHostSpeed;
  }

 private:
  struct Node {
    NodeHealth state = NodeHealth::Healthy;
    double score = 1.0;
    util::SimTime last_seen = util::SimTime::zero();
    std::size_t slow_strikes = 0;
    std::size_t probation_good = 0;
    bool excluded = false;
  };

  [[nodiscard]] Node& node(MachineId machine);
  [[nodiscard]] const Node& node(MachineId machine) const;

  HealthOptions options_;
  std::vector<Node> nodes_;
  HealthStats stats_;
};

}  // namespace hyperdrive::cluster
