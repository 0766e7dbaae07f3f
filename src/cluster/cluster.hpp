// HyperDriveCluster — the high-fidelity model of a live HyperDrive
// deployment (§4/§5), composed of the Resource Manager, Job Manager, Node
// Agents and AppStat database, driven by a discrete-event simulation. The
// Job Manager is the trace-replay simulator's own sim::JobManager over the
// cluster's extended record (ManagedJob), and the clone mint, target test
// and per-job result assembly are shared with it too.
//
// Fidelity knobs that distinguish it from the idealized trace-replay
// simulator (and hence produce the Fig. 12a validation gap):
//   * per-epoch duration jitter (live training is non-deterministic, §6.1),
//   * suspend latency + snapshot storage and resume transfer/restore costs
//     (§6.2.3 / §6.3.2), charged to machine occupancy,
//   * stat-report message latency between Node Agent and scheduler,
//   * optional decision latency at evaluation boundaries modelling the
//     learning-curve prediction cost; training continues while the decision
//     is pending (the §5.2 "overlap training and prediction" strategy), and
//     a suspend/terminate that lands mid-epoch discards the partial epoch.
//
// Fault tolerance: a ClusterOptions::fault_plan turns on the FaultInjector
// (node crashes with optional restart, message drop/duplication/delay,
// snapshot upload failure and corruption) and auto-enables the MessageBus
// reliability layer. The cluster survives the plan by:
//   * requeueing jobs that were running (or mid-suspend) on a crashed node,
//     rolled back to their last durable snapshot — epochs since then are
//     lost and re-trained (RecoveryStats::epochs_lost);
//   * shrinking/growing the Resource Manager membership so the policy's
//     slot math (S_deserved = S * p) tracks live capacity, with an
//     on_capacity_change upcall so policies can invalidate cached sets;
//   * falling back, when a snapshot fails to decode on resume, to the next
//     older snapshot and ultimately to a from-scratch restart that keeps the
//     curve history in the AppStatDb records;
//   * deduplicating stat reports by (job, epoch) in the AppStatDb so
//     retransmissions, injected duplicates, and re-trained epochs never
//     double-count.
// Every fault decision is drawn from the plan's seeded RNG, so a run is a
// pure function of (trace, seed, plan) — the golden-trace determinism tests
// compare the event stream an attached obs sink records, byte-for-byte.
//
// Lifecycle: the cluster runs on a sim::Simulation its caller owns. start()
// fires the policy's first upcalls and schedules the fault, health and Tmax
// events; the owner drives the clock; the cluster finishes itself at target,
// quiescence, Tmax or cancel (on_finished fires once) and collect() returns
// the result. run_cluster_experiment is the owner of a single run; a
// core::StudyManager owns the clock shared by many studies (DESIGN.md §9).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cluster/app_stat_db.hpp"
#include "cluster/fault_injector.hpp"
#include "cluster/health_monitor.hpp"
#include "cluster/messaging.hpp"
#include "cluster/node_catalog.hpp"
#include "cluster/snapshot_codec.hpp"
#include "cluster/node_agent.hpp"
#include "cluster/overhead_model.hpp"
#include "cluster/resource_manager.hpp"
#include "core/experiment_result.hpp"
#include "core/sap.hpp"
#include "obs/scope.hpp"
#include "sim/job_manager.hpp"
#include "sim/simulation.hpp"
#include "sim/trace_replay.hpp"
#include "util/bytes.hpp"
#include "workload/trace.hpp"

namespace hyperdrive::cluster {

/// Cluster-substrate options: the shared fields of sim::ReplayOptions
/// (machines, Tmax, stop rule, global stop criterion, explore hook) plus the
/// fidelity, fault, health and tenancy knobs only the cluster reads.
struct ClusterOptions : sim::ReplayOptions {
  /// Typed fleet layout (DESIGN.md §15). Empty (default) means one implicit
  /// "standard" class of `machines` nodes at price 1.0 / speed 1.0 — the
  /// pre-elastic behavior, byte-identical. Non-empty overrides `machines`
  /// with the catalog's total node count.
  NodeCatalog catalog;
  std::uint64_t seed = 1;
  /// Lognormal sigma of per-epoch duration jitter around the trace average.
  double epoch_jitter_sigma = 0.04;
  OverheadModel overheads = cifar_overhead_model();
  /// Optional cost of computing a scheduling decision (e.g. MCMC curve
  /// prediction) at evaluation-boundary epochs.
  std::function<util::SimTime(core::JobId, std::size_t epoch, util::Rng&)> decision_latency;
  /// §5.2 "Overlap training and prediction": when true (default, the paper's
  /// optimization) training continues while the decision is pending and a
  /// late suspend/terminate discards the partial epoch. When false the naive
  /// implementation is modelled: the machine holds the job idle until the
  /// decision arrives.
  bool overlap_decisions = true;
  /// Faults to inject (default: none — a perfect cluster, byte-identical to
  /// the pre-fault-subsystem behavior).
  FaultPlan fault_plan;
  /// Ack/retransmit parameters for the RPC fabric. Auto-enabled whenever the
  /// fault plan injects anything; leave `enabled` false for the fault-free
  /// fire-and-forget fabric.
  ReliabilityOptions reliability;
  /// Gray-failure detection & mitigation (heartbeats, EWMA speed scores,
  /// quarantine/probation, straggler migration, speed-aware placement).
  /// Off by default: the cluster is then byte-identical to the health-less
  /// behavior (no heartbeat traffic, no extra events).
  HealthOptions health;
  /// Instrumentation handle (DESIGN.md §10). A detached scope (the default)
  /// costs one null test per emit site; an attached sink records the run's
  /// deterministic event stream (crashes, restarts, starts/resumes,
  /// decisions, recoveries) as typed obs::TraceEvent records without
  /// perturbing the simulation — the stream the golden-trace tests compare.
  /// An attached registry receives end-of-run counters in finalize_result().
  obs::Scope obs;
  // --- multi-study leases (DESIGN.md §9) -----------------------------------
  /// Per-class slots online at start; the remaining machines start parked,
  /// leasable later by a StudyManager's arbiter. Empty = all online.
  CapacityView initial_lease;
  /// Study name stamped onto every emitted event (rendered "study=<name>")
  /// so a merged multi-study stream stays attributable. Empty (default)
  /// adds nothing.
  std::string study_label;
};

/// The cluster's job record: the shared sim::JobRecord plus placement, the
/// in-flight epoch and suspend events, the decision wait, the progress
/// deadline, normalized time and incarnation. Its history is the AppStatDb.
struct ManagedJob : sim::JobRecord {
  std::optional<MachineId> machine;
  util::SimTime training_time = util::SimTime::zero();  ///< completed-epoch time only

  // In-flight epoch (cancelled when a suspend/terminate decision lands
  // mid-epoch — the paper's overlapped prediction, §5.2).
  sim::EventHandle pending_epoch = 0;
  util::SimTime epoch_started_at = util::SimTime::zero();
  bool epoch_in_flight = false;

  // Blocking-decision mode (§5.2 ablation): the job idles on its machine
  // while the prediction-based decision is computed.
  bool waiting_decision = false;
  util::SimTime wait_started_at = util::SimTime::zero();

  // Suspend in progress: the snapshot-capture event that will ship the image
  // to storage (cancelled if the node crashes during the capture window).
  sim::EventHandle pending_suspend = 0;
  bool suspend_in_flight = false;

  // Gray-failure mitigation (DESIGN.md §7).
  /// Expected (pre-degradation) duration of the epoch in flight; baseline for
  /// the speed score and the progress deadline.
  util::SimTime epoch_expected = util::SimTime::zero();
  /// Straggler watchdog: fires when an epoch runs kHangDeadlineFactor x its
  /// expected duration without completing; cancelled on completion/interrupt.
  sim::EventHandle progress_deadline = 0;
  bool deadline_armed = false;
  /// training_time with each epoch scaled by the host's speed score — the
  /// cost the epochs would have had on healthy nodes (feeds
  /// SchedulerOps::normalized_epoch_duration).
  util::SimTime normalized_training_time = util::SimTime::zero();

  // Bumped every time the job is forcibly rolled back/requeued (crash, lost
  // snapshot). Events scheduled against an older incarnation — a startup
  // completion, a pending policy decision — are stale and must not act.
  std::uint64_t incarnation = 0;
};

class HyperDriveCluster final : public core::SchedulerOps {
 public:
  /// Run on `simulation`, which the caller owns and drives; the cluster
  /// never stops it (an owner that wants to stop at the finish does so from
  /// on_finished).
  HyperDriveCluster(const workload::Trace& trace, ClusterOptions options,
                    sim::Simulation& simulation);

  /// Begin the experiment without running the clock: fire the policy's
  /// start/allocate upcalls and schedule the fault, health and Tmax
  /// (study-timeout) events. Single-use.
  void start(core::SchedulingPolicy& policy);

  // --- lease protocol (multi-study scheduling, DESIGN.md §9) ---------------
  /// Set the arbiter-assigned per-class capacity. Shrinking a class reclaims
  /// immediately: idle slots park at once, crashed/quarantined slots are
  /// absorbed, and busy slots are cleanly snapshot-migrated (never killed)
  /// and park when released — on_slot_released fires for every slot handed
  /// back. Growing only raises the target; the arbiter grants actual slots
  /// via grant_one.
  void set_lease_target(const CapacityView& capacity);
  /// Grant one parked healthy slot of `node_class` (lowest id first).
  /// Returns false when that class's lease target is met, the study is
  /// finished, or no grantable slot remains in the class block.
  bool grant_one(NodeClassId node_class);
  /// Cancel the study: drain leased slots (held jobs keep their accrued
  /// accounting, in-flight epochs are abandoned) and finish immediately.
  void cancel();
  /// Assemble the result once the owner has run the clock.
  [[nodiscard]] core::ExperimentResult collect();
  /// Slots currently charged to this study (online or offline-unparked).
  [[nodiscard]] std::size_t held_slots() const noexcept {
    return rm_.configured() - rm_.parked();
  }
  /// held_slots() broken down by catalog class (full catalog width).
  [[nodiscard]] CapacityView held_capacity() const;
  [[nodiscard]] const CapacityView& lease_target() const noexcept {
    return lease_target_;
  }
  /// The fleet layout this cluster runs on (the implicit single "standard"
  /// class when ClusterOptions::catalog was empty).
  [[nodiscard]] const NodeCatalog& catalog() const noexcept { return catalog_; }
  /// Dollars charged to this study so far: the integral of held slots ×
  /// their class prices over held time (accrued alongside slot-seconds).
  [[nodiscard]] double spend_usd() const noexcept { return spend_usd_; }
  /// spend_usd() brought current to the sim clock. The lazy integral only
  /// advances at lease events, so mid-run readers (cost arbitration's budget
  /// clamp) must use this; accrual is a pure function of sim time, so
  /// advancing it early never changes the final bill.
  [[nodiscard]] double current_spend_usd() {
    if (!done_) accrue_slot_time();
    return spend_usd_;
  }
  [[nodiscard]] bool finished() const noexcept { return done_; }
  /// Fires whenever a reclaimed or drained slot parks (capacity returned to
  /// the arbiter's free pool).
  std::function<void()> on_slot_released;
  /// Fires once when the study finishes (target, quiescence, timeout,
  /// cancel), after every slot has drained.
  std::function<void()> on_finished;

  /// Post-run access to the framework components (overhead studies, tests).
  [[nodiscard]] const AppStatDb& app_stat_db() const noexcept { return db_; }
  [[nodiscard]] const std::vector<NodeAgent>& node_agents() const noexcept {
    return agents_;
  }
  /// RPC traffic accounting (§5: scheduler <-> node-agent communication).
  [[nodiscard]] const MessageBusStats& message_stats() const noexcept {
    return bus_.stats();
  }
  /// Injected-fault accounting (what went wrong; RecoveryStats in the result
  /// says what the system did about it).
  [[nodiscard]] const FaultStats& fault_stats() const noexcept {
    return injector_.stats();
  }
  /// Node-health verdicts and detection counters (gray-failure layer).
  [[nodiscard]] const HealthMonitor& health_monitor() const noexcept { return health_; }

  /// Serialize everything that determines the remainder of this cluster's
  /// run — job/machine/lease state, RNG streams, AppStatDb fingerprints, bus
  /// and fault accounting — into `w`. Coordinator checkpoints (DESIGN.md §12)
  /// store these bytes as an opaque, replay-verified state fingerprint; they
  /// are compared, never decoded, so the layout can evolve freely as long as
  /// equal states produce equal bytes and diverged states almost surely do
  /// not.
  void encode_state(util::ByteWriter& w) const;

  // --- SchedulerOps -------------------------------------------------------
  [[nodiscard]] std::optional<core::JobId> get_idle_job() override;
  bool start_job(core::JobId job) override;
  void label_job(core::JobId job, double priority) override;
  [[nodiscard]] std::size_t total_machines() const override { return rm_.total(); }
  [[nodiscard]] std::size_t idle_machines() const override { return rm_.idle(); }
  [[nodiscard]] util::SimTime now() const override { return simulation_.now(); }
  [[nodiscard]] core::JobStatus job_status(core::JobId job) const override;
  [[nodiscard]] std::vector<core::JobId> active_jobs() const override;
  [[nodiscard]] const std::vector<double>& perf_history(core::JobId job) const override;
  [[nodiscard]] util::SimTime avg_epoch_duration(core::JobId job) const override;
  [[nodiscard]] std::size_t epochs_done(core::JobId job) const override;
  [[nodiscard]] double host_speed(core::JobId job) const override;
  [[nodiscard]] util::SimTime normalized_epoch_duration(core::JobId job) const override;
  // Weight migration (PBT; DESIGN.md §13): available iff an explore hook is
  // configured. The clone itself is a storage-side bookkeeping operation
  // (history adoption + snapshot mint); the transfer cost is charged when the
  // cloned job is next scheduled, through the ordinary resume-overhead path.
  [[nodiscard]] bool supports_clone() const override;
  bool clone_job(core::JobId job, core::JobId donor, std::uint64_t stream) override;
  [[nodiscard]] std::size_t max_epochs() const override { return trace_.max_epochs; }
  [[nodiscard]] double target_performance() const override {
    return trace_.target_performance;
  }
  [[nodiscard]] double kill_threshold() const override { return trace_.kill_threshold; }
  /// Best performance reported by any job so far (0 until the first stat
  /// lands). Study arbitration reads this as the study's progress signal.
  [[nodiscard]] double best_performance() const noexcept { return result_.best_perf; }
  [[nodiscard]] std::size_t evaluation_boundary() const override {
    return trace_.evaluation_boundary;
  }

 private:
  /// A non-empty catalog is authoritative for the machine count; applied in
  /// the options_ member initializer so rm_/health_/agents_ (which size off
  /// options_.machines in the init list) see the corrected value.
  static ClusterOptions normalize(ClusterOptions options);

  void begin_epoch(core::JobId job);
  void complete_epoch(core::JobId job);
  void deliver_stat(const AppStat& stat);
  void decide(core::JobId job, core::JobEvent event, std::uint64_t incarnation);
  void interrupt_training(ManagedJob& job);
  void do_suspend(core::JobId job);
  void do_terminate(core::JobId job);
  void finish_suspend(core::JobId job, SuspendOverheadSample overhead);
  void release_and_allocate(core::JobId job);
  /// The quiescence rule, checked after every event the cluster handles:
  /// finish once every held slot is idle, no RPC is in flight, and no active
  /// job can run again (no restart or probation pending, no grantable
  /// parked slot).
  void maybe_finish();
  /// Cancel everything this cluster scheduled, drain every slot back, fire
  /// on_finished.
  void finish();
  /// collect()'s result assembly.
  void finalize_result();
  /// Publish the run's counters and the suspend-latency histogram into the
  /// attached registry (finalize_result() tail, obs.metrics != nullptr only).
  void publish_metrics();

  // --- lease protocol internals -------------------------------------------
  /// Reclaim slots until held - pending reclaims <= lease_target_.
  void apply_lease();
  /// Park `machine` and hand it back to the arbiter (capacity upcalls +
  /// on_slot_released).
  void surrender_slot(MachineId machine, const char* reason);
  /// Account held-slot time up to now (slot-seconds + spend integrals).
  void accrue_slot_time();
  /// Sum of class prices over currently held slots ($/hour).
  [[nodiscard]] double held_price_rate() const;

  // --- fault handling & recovery -----------------------------------------
  /// Schedule `fire` at `at` and keep its handle in `tracked` (fault_events_
  /// or infra_events_, valued `restart`) until it fires or finish() cancels
  /// it.
  void schedule_tracked(std::map<sim::EventHandle, bool>& tracked, util::SimTime at,
                        bool restart, std::function<void()> fire);
  /// The job occupying `machine` (running, or holding it for a snapshot
  /// capture / upload), if any.
  [[nodiscard]] ManagedJob* job_on(MachineId machine);
  void schedule_crashes();
  void crash_node(const NodeCrashEvent& crash);
  void restart_node(MachineId machine);
  /// Spot reclaim warning (DESIGN.md §15): start draining the machine —
  /// migrate its job via clean suspend, park it when released. An idle
  /// machine goes offline immediately.
  void spot_warning(const SpotPreemptionEvent& preemption);
  /// Warning deadline hit: if the machine is still busy the provider yanks
  /// it — crash-style job failure; a machine parked mid-window stays sick.
  void spot_preempt(const SpotPreemptionEvent& preemption);
  /// Take a drained (idle or parked) spot machine out of the membership for
  /// good: offline + excluded + parked-sick, with the capacity upcalls.
  void spot_offline(MachineId machine);
  /// Pull a job off its (crashed) machine: abandon in-flight work, roll back
  /// to the last durable snapshot, requeue, release the machine.
  void fail_job_on_crash(ManagedJob& job);
  /// Roll a job's progress back to its newest durable snapshot (or scratch)
  /// and requeue it; epochs since then count as lost and are re-trained.
  void rollback_to_durable(ManagedJob& job);
  /// The single instrumentation funnel: with an obs sink attached, stamp the
  /// simulation time and study label and emit. Sites pass a POD TraceEvent,
  /// so a run without a sink builds no strings.
  void record(obs::TraceEvent event);

  // --- gray-failure detection & mitigation (DESIGN.md §7) ------------------
  void schedule_health();
  void heartbeat_tick(MachineId machine);
  void watchdog_tick();
  void handle_heartbeat(const Heartbeat& beat);
  /// Arm/cancel the per-epoch progress deadline (hung-epoch watchdog).
  void arm_progress_deadline(ManagedJob& job);
  void disarm_progress_deadline(ManagedJob& job);
  void on_progress_deadline(core::JobId job, std::uint64_t incarnation);
  /// Take a (now idle) machine out of the membership and start its probation
  /// clock. The HealthMonitor must already hold it Quarantined.
  void finalize_quarantine(MachineId machine);
  void begin_probation_for(MachineId machine);

  const workload::Trace& trace_;
  ClusterOptions options_;
  /// The effective fleet layout: options_.catalog, or the implicit uniform
  /// single-class catalog when that was empty. Never empty.
  NodeCatalog catalog_;
  sim::Simulation& simulation_;
  ResourceManager rm_;
  sim::JobManager<ManagedJob> jm_;
  AppStatDb db_;
  std::vector<NodeAgent> agents_;
  util::Rng rng_;
  FaultInjector injector_;
  HealthMonitor health_;
  MessageBus bus_;
  EndpointId scheduler_endpoint_ = 0;
  EndpointId storage_endpoint_ = 0;
  core::SchedulingPolicy* policy_ = nullptr;
  core::ExperimentResult result_;
  /// Pending fault events (crash, restart, spot warning and reclaim,
  /// probation), handle -> is_restart. A pending restart or probation keeps
  /// a quiescent run with queued jobs alive; finish() cancels the rest, so a
  /// scheduled far-future crash never extends a finished experiment.
  std::map<sim::EventHandle, bool> fault_events_;
  /// Pending health-infrastructure ticks (per-machine heartbeats, the
  /// watchdog sweep): bookkeeping, never work — finish() cancels them.
  std::map<sim::EventHandle, bool> infra_events_;
  /// Machines whose slow-quarantine is decided but whose job is still being
  /// cleanly suspended off them; finalized when the machine is released.
  std::set<MachineId> pending_quarantine_;
  bool done_ = false;
  // --- lease state (DESIGN.md §9) ------------------------------------------
  CapacityView lease_target_;
  /// Busy machines picked for lease reclaim, parked once their job's clean
  /// suspend releases them.
  std::set<MachineId> pending_reclaim_;
  /// Spot machines inside their preemption-warning window: job migrating
  /// off, machine reclaimed (spot_offline) the moment it is released.
  std::set<MachineId> draining_;
  /// Parked machines that are not grantable: absorbed while crashed or
  /// quarantined (until their restart/probation event clears them), or
  /// reclaimed by the spot provider (for good).
  std::set<MachineId> parked_sick_;
  /// The Tmax event (study-timeout), armed by start() when Tmax is finite.
  sim::EventHandle timeout_event_ = 0;
  bool timeout_armed_ = false;
  util::SimTime finished_at_ = util::SimTime::zero();
  /// Slot-seconds integral: held_slots() accrued over time. spend_usd_ is
  /// the companion dollar integral (held slots × class price/hour).
  util::SimTime slot_seconds_ = util::SimTime::zero();
  util::SimTime slots_accrued_until_ = util::SimTime::zero();
  double spend_usd_ = 0.0;
  std::size_t lease_grants_ = 0;
  std::size_t lease_reclaims_ = 0;
};

/// One single run, mirroring sim::replay_experiment: a local simulation
/// that the cluster's finish stops, run to the end, then collect().
[[nodiscard]] core::ExperimentResult run_cluster_experiment(const workload::Trace& trace,
                                                            core::SchedulingPolicy& policy,
                                                            const ClusterOptions& options);

/// Register, in a fixed order, every metric a cluster run publishes in its
/// finalize_result() epilogue. Call once before sharing one registry across
/// parallel sweep cells: counters commute, so with the registration order
/// pinned the exported snapshot is byte-deterministic regardless of cell
/// completion order.
void preregister_cluster_metrics(obs::MetricsRegistry& registry);

}  // namespace hyperdrive::cluster
