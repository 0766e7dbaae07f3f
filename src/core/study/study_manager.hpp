// StudyManager — multi-tenant study scheduling with deadline-aware capacity
// arbitration (DESIGN.md §9). Several concurrent studies (each with its own
// hyperparameter generator, scheduling policy, target and optional deadline)
// share one simulated cluster. The manager owns the discrete-event clock and
// a pool of fungible machine slots; every study runs as a tenant
// HyperDriveCluster against the shared clock, and an arbitration layer moves
// slots between tenants:
//
//   * StaticPartition — weighted split at admission, never revisited. The
//     baseline: capacity freed by a finished study is stranded.
//   * FairShare — weighted fair share recomputed over the *unfinished*
//     studies at every arbitration tick and on study completion, so drained
//     capacity is handed to whoever is still running.
//   * DeadlineAware — FairShare plus urgency boosting: the manager estimates
//     each deadline study's remaining time-to-target from its best jobs'
//     learning curves (the same §5.2 predictor POP uses) and, when the
//     estimate overshoots the deadline, transfers slots from the study with
//     the most slack.
//
// Capacity changes flow to tenant policies through the ordinary
// on_capacity_change upcall, so POP's S_deserved = S * p math tracks the
// lease exactly like it tracks crash-induced membership churn. Reclaiming a
// busy slot never kills the job: it is cleanly snapshot-suspended (the §6.2.3
// machinery) and requeued inside its study.
//
// Determinism: a multi-study run is a pure function of (specs, options) —
// the merged event stream is byte-identical across runs and thread counts.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/autoscaler.hpp"
#include "cluster/cluster.hpp"
#include "core/experiment_result.hpp"
#include "core/sap.hpp"
#include "core/study/study_spec.hpp"
#include "curve/predictor.hpp"
#include "obs/scope.hpp"
#include "sim/simulation.hpp"
#include "util/sim_time.hpp"
#include "workload/trace.hpp"

namespace hyperdrive::core {

enum class ArbitrationMode {
  StaticPartition,  ///< weighted split at admission, never rebalanced
  FairShare,        ///< weighted fair share over unfinished studies
  DeadlineAware,    ///< fair share + time-to-target urgency boosting
  /// DeadlineAware caps plus elastic release (DESIGN.md §15): each tenant's
  /// target is clamped to its runnable-job count (and to one slot once it
  /// exhausts its spec budget), and the surplus capacity is handed back to
  /// the budget autoscaler instead of idling on the bill.
  Cost,
};

[[nodiscard]] std::string_view to_string(ArbitrationMode mode) noexcept;
/// Parses "static" | "fair" | "deadline" | "cost"; throws
/// std::invalid_argument.
[[nodiscard]] ArbitrationMode arbitration_from_string(const std::string& name);

/// A StudySpec's names resolved into what runs the study: the one resolver
/// behind StudyManager::add_study, the CLI's single-study flags and the
/// service's admission check (DESIGN.md §9).
struct ResolvedStudy {
  std::shared_ptr<const workload::WorkloadModel> model;
  /// Drawn from the spec's generator and realized against `model`, with
  /// generator feedback and the spec's target override. Empty when resolved
  /// without realization.
  workload::Trace trace;
  cluster::OverheadModel overheads;
  /// PBT weight-migration hook (inert unless the policy calls clone_job).
  workload::ExploreFn explore;
  /// A fresh registry policy per call: the spec's policy name, key=value
  /// options and tmax, seeded with `seed`.
  std::function<std::unique_ptr<SchedulingPolicy>(std::uint64_t seed)> make_policy;
};

/// Resolve `spec`'s workload, generator and policy names. One policy
/// instance is built, so an unknown policy or an option it does not accept
/// fails here. Throws std::invalid_argument naming the bad value. With
/// `realize_trace` false only the names are checked.
[[nodiscard]] ResolvedStudy resolve_study(const StudySpec& spec, bool realize_trace = true);

/// One captured coordinator state (DESIGN.md §12): everything the recovery
/// runtime needs to decide whether a resumed replay reconverged. `state` is
/// the opaque fingerprint written by StudyManager::capture — compared
/// byte-for-byte against the replay's re-capture, never decoded.
struct ManagerCheckpoint {
  std::uint64_t sequence = 0;
  util::SimTime tick = util::SimTime::zero();
  std::size_t rebalances = 0;
  std::vector<std::uint8_t> state;
};

/// How a StudyManager::run ended.
enum class ManagerExit {
  Completed,  ///< every study finished
  Crashed,    ///< a CoordinatorCrashEvent killed the coordinator mid-run
  Halted,     ///< the on_checkpoint sink returned false (replay divergence)
};

/// DeadlineAware: slots transferred to an urgent study per tick.
inline constexpr std::size_t kDeadlineBoostSlots = 2;
/// Curve-prediction urgency threshold: a study is urgent when the first
/// epoch with P(target reached) >= this confidence lands past the deadline.
inline constexpr double kDeadlineConfidence = 0.5;

struct StudyManagerOptions {
  /// Total machine slots shared by all studies.
  std::size_t machines = 8;
  /// Typed fleet layout (DESIGN.md §15). Empty (default) means one implicit
  /// "standard" class of `machines` nodes at price 1.0 / speed 1.0 — the
  /// pre-elastic behavior, byte-identical. Non-empty overrides `machines`
  /// with the catalog's total node count.
  cluster::NodeCatalog catalog;
  /// Hard autoscaler spend ceiling for the whole run ($); once the projected
  /// bill reaches it no further capacity is acquired (infinite = uncapped).
  double budget_usd = std::numeric_limits<double>::infinity();
  ArbitrationMode arbitration = ArbitrationMode::FairShare;
  /// Cadence of the rebalancing tick (FairShare / DeadlineAware only).
  util::SimTime arbitration_interval = util::SimTime::minutes(10);
  std::uint64_t seed = 1;
  double epoch_jitter_sigma = 0.04;
  /// Gray-failure detection & mitigation, applied to every tenant.
  cluster::HealthOptions health;
  /// Faults injected into every tenant cluster. Coordinator crashes in the
  /// plan are scheduled by the manager itself (the tenants ignore them).
  cluster::FaultPlan fault_plan;
  /// Instrumentation handle shared by every tenant cluster (DESIGN.md §10);
  /// each tenant stamps its study name onto the events it emits.
  obs::Scope obs;
  // --- coordinator crash-recovery (DESIGN.md §12) ---------------------------
  /// Checkpoint-capture cadence; zero (default) disables checkpointing and
  /// keeps the run byte-identical to the pre-recovery manager.
  util::SimTime checkpoint_every = util::SimTime::zero();
  /// Receives every periodic checkpoint. Returning false halts the run with
  /// ManagerExit::Halted — the recovery runtime aborts a resumed replay this
  /// way when its re-captured state diverges from the durable checkpoint.
  std::function<bool(ManagerCheckpoint&&)> on_checkpoint;
  /// Leading entries of fault_plan.coordinator_crashes (sorted by time)
  /// already taken by earlier incarnations of this process; not rescheduled.
  std::size_t coordinator_crashes_to_skip = 0;
  /// Defensive resume guard: crash events strictly before this time are
  /// skipped even beyond the prefix above, so a hand-edited checkpoint can
  /// never re-fire a crash from its own past and loop the coordinator.
  util::SimTime crash_floor = util::SimTime::zero();
};

/// What one study got out of the shared cluster.
struct StudyOutcome {
  StudySpec spec;
  ExperimentResult result;
  bool cancelled = false;
  /// spec.has_deadline() && target reached by the deadline.
  bool deadline_met = false;
};

struct MultiStudyResult {
  std::vector<StudyOutcome> studies;
  /// When the last study finished.
  util::SimTime total_time = util::SimTime::zero();
  /// Arbitration ticks that actually changed at least one lease target.
  std::size_t rebalances = 0;
  /// The cloud bill ($): the autoscaler's integral of acquired nodes × class
  /// price over the run — includes acquired-but-idle capacity, unlike the
  /// per-study chargeback in each outcome's result.spend_usd (DESIGN.md §15).
  double spend_usd = 0.0;

  /// Roll the outcomes up into one ExperimentResult: counters summed,
  /// job_stats concatenated (tagged with their study), reached_target only
  /// when every study reached its target, and time_to_target = the makespan
  /// over studies.
  [[nodiscard]] ExperimentResult aggregate() const;
  /// One CSV row per study (EXPERIMENTS.md "Multi-study CSV schema").
  /// Byte-deterministic: every number goes through one fixed format.
  void save_csv(std::ostream& out) const;
};

class StudyManager {
 public:
  explicit StudyManager(StudyManagerOptions options);
  ~StudyManager();
  StudyManager(const StudyManager&) = delete;
  StudyManager& operator=(const StudyManager&) = delete;

  /// Admit a study through resolve_study (trace realized here, so admission
  /// cost is paid up front). Throws std::invalid_argument on unknown names
  /// or a duplicate study name.
  void add_study(const StudySpec& spec);
  /// Admit a study with an explicit trace and policy factory (tests, custom
  /// policies). The factory runs once, inside run(). The study runs with its
  /// workload's overhead model and without a PBT explore hook.
  void add_study(StudySpec spec, workload::Trace trace,
                 std::function<std::unique_ptr<SchedulingPolicy>()> policy_factory);

  [[nodiscard]] std::size_t study_count() const noexcept;

  /// Run every admitted study to completion (target / quiescence / Tmax /
  /// cancel-at) under the configured arbitration. Single-use.
  [[nodiscard]] MultiStudyResult run();

  /// How run() ended. Completed unless a scheduled coordinator crash fired
  /// (Crashed) or the on_checkpoint sink vetoed continuation (Halted).
  [[nodiscard]] ManagerExit exit_status() const noexcept { return exit_; }

  /// Capture a checkpoint outside the periodic cadence — the "on demand"
  /// path. Callable after run() returns (the simulation and tenants stay
  /// alive), which is how the recovery runtime persists the final state so a
  /// resume after the last study finished replays nothing.
  [[nodiscard]] ManagerCheckpoint capture_checkpoint();

 private:
  struct Tenant;

  /// Weighted-fair slot split over unfinished tenants (largest remainder,
  /// every unfinished tenant gets at least one slot).
  [[nodiscard]] std::vector<std::size_t> fair_targets() const;
  /// Predictor-based remaining time-to-target estimate for a tenant;
  /// infinity when no job has enough history to predict.
  [[nodiscard]] util::SimTime estimate_time_to_target(const Tenant& tenant) const;
  /// DeadlineAware adjustment on top of fair targets. Urgency latches per
  /// tenant (cleared when the study finishes or its deadline passes), so the
  /// boost cannot oscillate with a noisy estimate.
  void apply_deadline_boost(std::vector<std::size_t>& targets);
  /// Cost-mode clamp: no tenant is leased more slots than it has runnable
  /// jobs, and a tenant past its spec budget keeps exactly one slot.
  void apply_cost_caps(std::vector<std::size_t>& targets);
  /// Water-fill per-tenant slot totals onto catalog classes: classes in id
  /// order, tenants in admission order, each tenant's preferred
  /// spec.node_class served first. Views come back at full catalog width.
  [[nodiscard]] std::vector<cluster::CapacityView> split_by_class(
      const std::vector<std::size_t>& totals) const;
  /// Drive the autoscaler toward the aggregate demand of `views`, emitting
  /// NodeAcquired/NodeReleased events and elastic.* metrics for each action.
  void reconcile_autoscaler(const std::vector<cluster::CapacityView>& views);
  /// Push new lease targets to tenants (shrink first, then grow) and pump.
  void rebalance(bool count_tick);
  /// Hand free acquired slots to tenants below their lease target
  /// (round-robin per node class).
  void pump();
  void on_study_finished(std::size_t index);
  /// Periodic arbitration tick: rebalance, then re-arm one interval later.
  void arbitration_tick();
  /// Periodic checkpoint tick: capture, emit CheckpointWritten, hand the
  /// frame to on_checkpoint, then re-arm one cadence later.
  void checkpoint_tick();
  [[nodiscard]] bool all_finished() const;
  /// Serialize the full resumable coordinator state (manager bookkeeping +
  /// every tenant's cluster state) into the opaque checkpoint fingerprint.
  [[nodiscard]] std::vector<std::uint8_t> capture() const;

  StudyManagerOptions options_;
  /// The effective fleet layout: options_.catalog, or the implicit uniform
  /// single-class catalog when that was empty. Never empty.
  cluster::NodeCatalog catalog_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  /// Deadline arbitration's predictor: LSQ behind the exact cache. Each tick
  /// re-predicts up to five front-runners per study on a future grid that
  /// depends only on the epochs done, so a job that made no progress since
  /// the last tick repeats its request.
  std::shared_ptr<const curve::CurvePredictor> predictor_;
  /// Budget-capped capacity acquisition (created in run(); DESIGN.md §15).
  std::unique_ptr<cluster::Autoscaler> autoscaler_;
  std::unique_ptr<sim::Simulation> sim_;
  sim::EventHandle arbitration_event_ = 0;
  bool arbitration_armed_ = false;
  /// DeadlineAware: last boosted split and the (finished, urgent) topology
  /// it was computed for — reused verbatim until the topology changes.
  std::vector<char> boost_key_;
  std::vector<std::size_t> boost_targets_;
  std::size_t rebalances_ = 0;
  bool ran_ = false;
  // --- coordinator crash-recovery (DESIGN.md §12) ---------------------------
  std::uint64_t checkpoint_seq_ = 0;
  sim::EventHandle checkpoint_event_ = 0;
  bool checkpoint_armed_ = false;
  ManagerExit exit_ = ManagerExit::Completed;
};

}  // namespace hyperdrive::core
