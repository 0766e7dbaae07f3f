// Result record shared by both execution substrates (high-fidelity cluster
// and trace-replay simulator). Everything the evaluation figures need is
// collected here: time-to-target (Fig. 7/9/12), per-job execution durations
// (Fig. 6), suspend/termination counts and overhead samples (Fig. 10,
// §6.2.3).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/sap.hpp"
#include "util/sim_time.hpp"

namespace hyperdrive::core {

struct JobRunStats {
  JobId job_id = 0;
  /// Total machine time this job occupied (training + suspend overheads).
  util::SimTime execution_time = util::SimTime::zero();
  std::size_t epochs_completed = 0;
  std::size_t times_suspended = 0;
  JobStatus final_status = JobStatus::Pending;
  double best_perf = 0.0;
  /// Owning study (multi-tenant runs, DESIGN.md §9); empty for single-study.
  std::string study;
};

/// One suspend operation's overhead sample (§6.2.3 / Fig. 10).
struct SuspendSample {
  JobId job_id = 0;
  util::SimTime latency = util::SimTime::zero();
  double snapshot_bytes = 0.0;
};

/// What the reliability protocol did to survive an injected fault plan: node
/// membership churn, job requeues, training rolled back to the last durable
/// snapshot, and degraded-mode fallbacks. All zero on a fault-free run.
/// Message-level recovery (retries, retransmitted/ack bytes, dedup hits) is
/// accounted in cluster::MessageBusStats.
struct RecoveryStats {
  std::size_t node_crashes = 0;
  std::size_t node_restarts = 0;
  /// Jobs pulled off a dead machine and put back in the idle queue.
  std::size_t jobs_requeued = 0;
  /// Completed epochs whose training state was lost (crash or lost snapshot)
  /// and had to be re-trained from the last good snapshot.
  std::size_t epochs_lost = 0;
  /// Snapshot captures/uploads that never made it to the AppStatDb.
  std::size_t snapshots_lost = 0;
  /// Resumes whose snapshot failed to decode (corruption) and fell back to
  /// replaying AppStatDb records.
  std::size_t snapshot_restore_failures = 0;
  /// Stat-report RPCs abandoned after exhausting every retransmission.
  std::size_t stat_reports_lost = 0;
  /// Re-trained epochs whose (duplicate) stat report was absorbed by the
  /// AppStatDb's epoch dedup.
  std::size_t duplicate_stats_ignored = 0;
  // --- gray-failure mitigation (DESIGN.md §7) ------------------------------
  /// Jobs moved off a degraded node (clean suspend for slow hosts, snapshot
  /// rollback for hung ones) instead of being killed or left to crawl.
  std::size_t jobs_migrated = 0;
  /// Nodes taken out of the membership for persistent slowness or silence.
  std::size_t nodes_quarantined = 0;
  /// Quarantined nodes that served probation and rejoined at nominal speed.
  std::size_t nodes_reinstated = 0;
  /// Progress-deadline expiries (an epoch ran kHangDeadlineFactor x longer
  /// than expected and the job was presumed hung).
  std::size_t hung_jobs_detected = 0;
  /// Ground-truth oracle (fault injector knowledge, not observable by the
  /// scheduler): jobs terminated while hosted on a degraded node although
  /// their learning curve does reach the target — the exploration-corrupting
  /// mistake speed-aware POP exists to prevent.
  std::size_t wrong_kills = 0;

  [[nodiscard]] bool operator==(const RecoveryStats&) const = default;
};

struct ExperimentResult {
  std::string policy_name;
  bool reached_target = false;
  /// Time at which some job first reported performance >= target
  /// (infinity when the target was never reached).
  util::SimTime time_to_target = util::SimTime::infinity();
  JobId winning_job = 0;
  double best_perf = 0.0;
  /// When the experiment ended (target hit, all jobs finished, or Tmax).
  util::SimTime total_time = util::SimTime::zero();
  /// Sum of busy machine time across the cluster.
  util::SimTime total_machine_time = util::SimTime::zero();
  std::size_t suspends = 0;
  std::size_t terminations = 0;
  std::size_t jobs_started = 0;
  /// PBT exploit clones performed by the substrate (DESIGN.md §13).
  std::size_t clones = 0;
  std::vector<JobRunStats> job_stats;
  std::vector<SuspendSample> suspend_samples;
  /// Fault-recovery accounting (all zero when no faults were injected).
  RecoveryStats recovery;
  /// Message-level recovery summary copied from the cluster RPC fabric
  /// (zero under TraceReplay; full detail in
  /// HyperDriveCluster::message_stats()). Carried here so sweep cells do not
  /// need to keep the cluster object alive past the run.
  std::uint64_t retransmissions = 0;
  // --- multi-study tenancy (DESIGN.md §9) ----------------------------------
  /// Study this result belongs to; empty outside StudyManager runs.
  std::string study;
  /// Integral of leased slots over time. For a single-tenant cluster this is
  /// machines x total_time; under arbitration it tracks the actual lease.
  util::SimTime slot_seconds = util::SimTime::zero();
  /// Capacity handed to / reclaimed from this tenant by the study arbiter.
  std::size_t lease_grants = 0;
  std::size_t lease_reclaims = 0;
  /// Dollars of capacity this run held: integral of held slots x node-class
  /// price over time (DESIGN.md §15). Under the default uniform catalog
  /// (price 1.0/hour) this equals slot_seconds in hours.
  double spend_usd = 0.0;
};

}  // namespace hyperdrive::core
