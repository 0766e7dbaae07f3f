#include "cluster/cluster.hpp"

#include <algorithm>

namespace hyperdrive::cluster {

namespace {
/// The RPC fabric inherits its latency model from the overhead model so the
/// calibrated stat-report timings (§6.2.3) are preserved. The reliability
/// layer turns on automatically as soon as any fault is injected — an
/// unreliable fabric under faults would silently lose experiment results.
MessageBusOptions bus_options_from(const ClusterOptions& cluster_options) {
  const OverheadModel& overheads = cluster_options.overheads;
  MessageBusOptions options;
  options.latency_mu = overheads.stat_latency_s.mu;
  options.latency_sigma = overheads.stat_latency_s.sigma;
  options.latency_min_s = overheads.stat_latency_s.lo;
  options.latency_max_s = overheads.stat_latency_s.hi;
  options.bandwidth_bps = overheads.resume_bandwidth_bps;
  options.reliability = cluster_options.reliability;
  if (cluster_options.fault_plan.any()) options.reliability.enabled = true;
  return options;
}

/// Approximate serialized size of one application-stat RPC.
constexpr double kStatRpcBytes = 256.0;
/// Approximate serialized size of one heartbeat probe.
constexpr double kHeartbeatRpcBytes = 64.0;
}  // namespace

ClusterOptions HyperDriveCluster::normalize(ClusterOptions options) {
  if (!options.catalog.empty()) options.machines = options.catalog.total_nodes();
  return options;
}

HyperDriveCluster::HyperDriveCluster(const workload::Trace& trace, ClusterOptions options,
                                     sim::Simulation& simulation)
    : trace_(trace),
      options_(normalize(std::move(options))),
      catalog_(options_.catalog.empty() ? NodeCatalog::uniform(options_.machines)
                                        : options_.catalog),
      simulation_(simulation),
      rm_(options_.machines),
      jm_(trace),
      rng_(util::derive_seed(options_.seed, 0xC105)),
      injector_(options_.fault_plan, options_.seed),
      health_(options_.machines, options_.health),
      bus_(simulation_, bus_options_from(options_), options_.seed) {
  lease_target_ = catalog_.full();
  slots_accrued_until_ = simulation_.now();
  if (options_.initial_lease.total() > 0 &&
      options_.initial_lease.total() < options_.machines) {
    // Keep the lowest `target` ids of each class block online; the rest start
    // parked (leasable later). Single-class: identical to parking
    // [initial_lease, machines), highest id first.
    for (NodeClassId c = 0; c < catalog_.classes(); ++c) {
      const std::size_t begin = catalog_.block_begin(c);
      const std::size_t end = catalog_.block_end(c);
      const std::size_t target = std::min(options_.initial_lease.of(c), end - begin);
      lease_target_.set(c, target);
      for (std::size_t m = end; m-- > begin + target;) {
        rm_.park_machine(static_cast<MachineId>(m));
      }
    }
  }
  agents_.reserve(options_.machines);
  for (std::size_t i = 0; i < options_.machines; ++i) {
    agents_.emplace_back(static_cast<MachineId>(i));
  }
  if (injector_.active()) bus_.set_fault_injector(&injector_);
  // The last event of a run is often the final stat report's ack settling
  // inside the bus; quiescence is re-checked then like after any other event.
  bus_.set_drain_handler([this] { maybe_finish(); });
  // The scheduler receives application stats; the AppStatDB storage service
  // receives snapshot uploads (it enqueues the suspended job once stored).
  scheduler_endpoint_ = bus_.register_endpoint("scheduler", [this](const Message& m) {
    if (m.type == MessageType::Heartbeat) {
      const auto beat = std::static_pointer_cast<const Heartbeat>(m.payload);
      if (beat) handle_heartbeat(*beat);
      return;
    }
    const auto stat = std::static_pointer_cast<const AppStat>(m.payload);
    if (stat) deliver_stat(*stat);
    // A run's last event is often this delivery.
    maybe_finish();
  });
  storage_endpoint_ = bus_.register_endpoint("appstatdb", [this](const Message& m) {
    const auto snapshot = std::static_pointer_cast<const ModelSnapshot>(m.payload);
    if (!snapshot) return;
    const core::JobId id = snapshot->job_id;
    auto& job = jm_.job(id);
    // A duplicate upload (injected, on the fire-and-forget fabric) or one
    // that raced a crash requeue must not double-release the machine or
    // store an image newer than the job's rolled-back epoch.
    if (job.idle || job.status != core::JobStatus::Suspended ||
        snapshot->epoch != job.epochs_done) {
      maybe_finish();
      return;
    }
    db_.store_snapshot(*snapshot);
    record(obs::TraceEvent(obs::EventKind::SnapshotStored)
               .with_job(static_cast<std::int64_t>(id))
               .with_epoch(static_cast<std::int64_t>(snapshot->epoch)));
    jm_.enqueue_idle(id);
    release_and_allocate(id);
  });
}

std::optional<core::JobId> HyperDriveCluster::get_idle_job() { return jm_.get_idle_job(); }

bool HyperDriveCluster::start_job(core::JobId id) {
  auto& job = jm_.job(id);
  if (!job.queued()) return false;
  // With the health layer on, prefer the fastest-scoring idle machine (ties
  // to the lowest id, so a uniformly healthy cluster places identically to
  // the unscored path). Degraded-but-not-yet-quarantined nodes are avoided
  // whenever a better host is free.
  const auto machine =
      options_.health.enabled
          ? rm_.reserve_idle_machine([this](MachineId m) { return health_.speed_score(m); })
          : rm_.reserve_idle_machine();
  if (!machine) return false;

  jm_.dequeue_idle(id);
  job.machine = *machine;
  auto& agent = agents_[*machine];

  util::SimTime startup_cost;
  if (job.status == core::JobStatus::Pending) {
    startup_cost = options_.overheads.job_start_cost;
    ++result_.jobs_started;
    record(obs::TraceEvent(obs::EventKind::JobStart)
               .with_job(static_cast<std::int64_t>(id))
               .with_machine(static_cast<std::int64_t>(*machine)));
  } else {
    // Resume: ship the snapshot to the new host and restore (decode) the
    // model state. A snapshot that fails to decode (bit-flipped in storage)
    // is skipped in favour of the next older one; with no usable snapshot at
    // all the model state is lost — training restarts from epoch 0 and only
    // the curve history survives, in the AppStatDb records.
    SuspendOverheadSample snapshot_info;
    const auto& snaps = db_.snapshots(id);
    if (!snaps.empty()) snapshot_info.snapshot_bytes = snaps.back().size_bytes;
    bool restored = false;
    bool decode_failed = false;
    for (auto it = snaps.rbegin(); it != snaps.rend(); ++it) {
      if (it->epoch > job.epochs_done) continue;  // newer than the rolled-back state
      const auto state = SnapshotCodec::decode(it->image);
      if (!state || state->job_id != id || state->epoch != it->epoch) {
        decode_failed = true;
        continue;
      }
      if (it->epoch < job.epochs_done) {
        result_.recovery.epochs_lost += job.epochs_done - it->epoch;
        job.epochs_done = it->epoch;
      }
      restored = true;
      break;
    }
    if (decode_failed) {
      ++result_.recovery.snapshot_restore_failures;
      record(obs::TraceEvent(obs::EventKind::SnapshotRestoreFailed)
                 .with_job(static_cast<std::int64_t>(id)));
    }
    if (!restored && !snaps.empty()) {
      // Every stored image was unusable: restart from scratch.
      result_.recovery.epochs_lost += job.epochs_done;
      job.epochs_done = 0;
      ++job.incarnation;
    }
    startup_cost = options_.overheads.resume_cost(snapshot_info, rng_);
    record(obs::TraceEvent(obs::EventKind::JobResume)
               .with_job(static_cast<std::int64_t>(id))
               .with_machine(static_cast<std::int64_t>(*machine))
               .with_epoch(static_cast<std::int64_t>(job.epochs_done)));
  }
  job.status = core::JobStatus::Running;
  job.execution_time += startup_cost;
  agent.note_busy(startup_cost);
  simulation_.schedule_after(startup_cost, [this, id, inc = job.incarnation] {
    if (jm_.job(id).incarnation != inc) return;  // crashed during startup
    begin_epoch(id);
  });
  return true;
}

void HyperDriveCluster::label_job(core::JobId job, double priority) {
  jm_.label_job(job, priority);
}

core::JobStatus HyperDriveCluster::job_status(core::JobId job) const {
  return jm_.job(job).status;
}

std::vector<core::JobId> HyperDriveCluster::active_jobs() const { return jm_.active_jobs(); }

const std::vector<double>& HyperDriveCluster::perf_history(core::JobId job) const {
  return db_.perf_history(job);
}

util::SimTime HyperDriveCluster::avg_epoch_duration(core::JobId job) const {
  const auto& j = jm_.job(job);
  if (j.epochs_done == 0) return util::SimTime::zero();
  return j.training_time / static_cast<double>(j.epochs_done);
}

std::size_t HyperDriveCluster::epochs_done(core::JobId job) const {
  return jm_.job(job).epochs_done;
}

double HyperDriveCluster::host_speed(core::JobId job) const {
  const auto& j = jm_.job(job);
  // Catalog speed × health EWMA; both factors are 1.0 on a homogeneous,
  // health-less cluster, so this path stays bit-exact with the pre-elastic
  // behavior (×1.0 is an IEEE no-op).
  double speed = j.machine ? catalog_.speed(*j.machine) : 1.0;
  if (options_.health.enabled && j.machine) speed *= health_.speed_score(*j.machine);
  return speed;
}

util::SimTime HyperDriveCluster::normalized_epoch_duration(core::JobId job) const {
  if (!options_.health.enabled && !catalog_.heterogeneous()) return avg_epoch_duration(job);
  const auto& j = jm_.job(job);
  if (j.epochs_done == 0) return util::SimTime::zero();
  return j.normalized_training_time / static_cast<double>(j.epochs_done);
}

bool HyperDriveCluster::supports_clone() const {
  return static_cast<bool>(options_.explore);
}

bool HyperDriveCluster::clone_job(core::JobId id, core::JobId donor, std::uint64_t stream) {
  // The donated state is the donor's durable record (§5.1): the AppStatDb's
  // contiguous stat prefix, which is also as far as any stored weight
  // snapshot can reach.
  if (!jm_.clone(id, donor, options_.explore, stream,
                 [this](core::JobId j) -> const std::vector<double>& {
                   return db_.perf_history(j);
                 },
                 result_)) {
    return false;
  }
  auto& job = jm_.job(id);
  const std::size_t epoch = job.epochs_done;
  // The target adopts the donor's stats up to the clone epoch and gets
  // exactly one durable snapshot there, so the ordinary start_job resume path
  // restores it like any suspended job: ship the image, decode, charge the
  // resume-transfer cost.
  db_.adopt_history(id, donor, epoch);
  double size_bytes;
  if (const auto donor_snap = db_.latest_snapshot(donor)) {
    size_bytes = donor_snap->size_bytes;  // the model being copied
  } else {
    size_bytes = options_.overheads.sample_suspend(rng_).snapshot_bytes;
  }
  JobSnapshotState state;
  state.job_id = id;
  state.epoch = epoch;
  state.config = job.spec->config;
  state.history = db_.perf_history(id);
  ModelSnapshot snapshot;
  snapshot.job_id = id;
  snapshot.epoch = epoch;
  snapshot.size_bytes = size_bytes;
  snapshot.image = SnapshotCodec::encode(state);
  snapshot.stored_at = simulation_.now();
  db_.store_snapshot(std::move(snapshot));

  // Any in-flight decision or deadline for the pre-clone job is stale now.
  ++job.incarnation;
  record(obs::TraceEvent(obs::EventKind::JobClone)
             .with_job(static_cast<std::int64_t>(id))
             .with_epoch(static_cast<std::int64_t>(epoch))
             .with_detail(std::to_string(donor)));
  return true;
}

void HyperDriveCluster::begin_epoch(core::JobId id) {
  if (done_) return;
  auto& job = jm_.job(id);
  if (job.status != core::JobStatus::Running) return;
  const double jitter =
      options_.epoch_jitter_sigma > 0.0 ? rng_.lognormal(0.0, options_.epoch_jitter_sigma)
                                        : 1.0;
  util::SimTime duration = job.spec->curve.epoch_duration * jitter;
  // Heterogeneous fleets: a speed-2.0 host trains epochs in half the time.
  // Guarded so the 1.0 (homogeneous) case leaves the value bit-identical.
  if (job.machine) {
    const double speed = catalog_.speed(*job.machine);
    if (speed != 1.0) duration = duration / speed;
  }
  job.epoch_expected = duration;
  job.epoch_started_at = simulation_.now();
  job.epoch_in_flight = true;

  // Gray faults stretch (or freeze) the epoch. Both queries are RNG-free, so
  // a plan without them leaves the jitter/fault decision streams untouched.
  if (injector_.active() && job.machine) {
    const double slow = injector_.slowdown_factor(*job.machine, simulation_.now());
    if (slow > 1.0) {
      duration = duration * slow;
      injector_.note_slow_epoch();
    }
    const util::SimTime stall =
        injector_.hang_stall(*job.machine, simulation_.now(), duration);
    if (stall == util::SimTime::infinity()) {
      // The epoch never completes: no completion event is scheduled, the
      // machine is wedged. Only the progress deadline (below) or the
      // missed-heartbeat watchdog can recover the job.
      injector_.note_hung_epoch();
      job.pending_epoch = 0;
      arm_progress_deadline(job);
      return;
    }
    if (stall > util::SimTime::zero()) {
      duration += stall;
      injector_.note_stalled_epoch();
    }
  }

  job.pending_epoch =
      simulation_.schedule_after(duration, [this, id] { complete_epoch(id); });
  arm_progress_deadline(job);
}

void HyperDriveCluster::complete_epoch(core::JobId id) {
  if (done_) return;
  auto& job = jm_.job(id);
  if (job.status != core::JobStatus::Running || !job.machine) return;
  const util::SimTime duration = simulation_.now() - job.epoch_started_at;
  job.epoch_in_flight = false;
  disarm_progress_deadline(job);
  job.execution_time += duration;
  job.training_time += duration;

  auto& agent = agents_[*job.machine];
  agent.note_busy(duration);
  agent.note_epoch();

  // Feed the health layer: update the host's EWMA speed score and charge the
  // job's normalized training time (what the epoch would have cost at
  // nominal speed) for SchedulerOps::normalized_epoch_duration.
  auto transition = HealthMonitor::Transition::None;
  // Normalized time = what the epoch would have cost at nominal (speed-1.0,
  // healthy) pace: catalog speed scales it back up for fast hosts, the health
  // EWMA discounts degraded ones. Both factors are exactly 1.0 on the
  // homogeneous health-less path.
  const double catalog_speed = catalog_.speed(*job.machine);
  if (options_.health.enabled) {
    transition = health_.note_epoch(*job.machine, job.epoch_expected, duration,
                                    simulation_.now());
    double normalize = std::min(1.0, health_.speed_score(*job.machine));
    if (catalog_speed != 1.0) normalize *= catalog_speed;
    job.normalized_training_time += duration * normalize;
  } else if (catalog_speed != 1.0) {
    job.normalized_training_time += duration * catalog_speed;
  } else {
    job.normalized_training_time += duration;
  }

  const double perf = job.spec->curve.perf.at(job.epochs_done);
  ++job.epochs_done;
  record(obs::TraceEvent(obs::EventKind::EpochComplete)
             .with_job(static_cast<std::int64_t>(id))
             .with_epoch(static_cast<std::int64_t>(job.epochs_done)));

  AppStat stat;
  stat.job_id = id;
  stat.epoch = job.epochs_done;
  stat.perf = perf;
  if (!job.spec->curve.secondary.empty()) {
    stat.secondary = job.spec->curve.secondary.at(job.epochs_done - 1);
  }
  stat.epoch_duration = duration;
  stat.node = *job.machine;
  stat.reported_at = simulation_.now();

  // The stat report must be in flight before the machine can be released,
  // otherwise a completing job could end the experiment with its final
  // (possibly target-reaching) report undelivered. It travels as an RPC
  // from the Node Agent to the scheduler (§5). Under the reliability layer
  // it is retransmitted until acked; if every attempt is lost the epoch's
  // stat is gone for good (training went on regardless — §5.2 overlap).
  Message report;
  report.type = MessageType::ReportStat;
  report.from = static_cast<EndpointId>(*job.machine);
  report.to = scheduler_endpoint_;
  report.job_id = id;
  report.payload_bytes = kStatRpcBytes;
  report.payload = std::make_shared<const AppStat>(stat);
  bus_.send(std::move(report),
            [this](const Message&) { ++result_.recovery.stat_reports_lost; });

  const MachineId host = *job.machine;
  if (transition == HealthMonitor::Transition::Quarantine) {
    // The monitor condemned the host for persistent slowness. The machine
    // goes offline as soon as it is free; its job (if unfinished) is cleanly
    // suspended — snapshot at the boundary it just reached, zero epochs
    // lost — and resumes on a healthy node.
    pending_quarantine_.insert(host);
  } else if (transition == HealthMonitor::Transition::Reinstate) {
    ++result_.recovery.nodes_reinstated;
    record(obs::TraceEvent(obs::EventKind::NodeReinstate)
               .with_machine(static_cast<std::int64_t>(host)));
  }

  if (job.epochs_done >= job.spec->curve.perf.size()) {
    job.status = core::JobStatus::Completed;
    record(obs::TraceEvent(obs::EventKind::JobComplete).with_job(static_cast<std::int64_t>(id)));
    release_and_allocate(id);
  } else if (transition == HealthMonitor::Transition::Quarantine) {
    ++result_.recovery.jobs_migrated;
    record(obs::TraceEvent(obs::EventKind::JobMigrate)
               .with_job(static_cast<std::int64_t>(id))
               .with_machine(static_cast<std::int64_t>(host))
               .with_detail("slow"));
    do_suspend(id);
  } else if (!options_.overlap_decisions && options_.decision_latency &&
             trace_.evaluation_boundary > 0 &&
             job.epochs_done % trace_.evaluation_boundary == 0) {
    // Naive (non-overlapped) mode: the job idles on its machine until the
    // prediction-based decision arrives; decide() resumes it.
    job.waiting_decision = true;
    job.wait_started_at = simulation_.now();
  } else {
    // Schedule-as-it-goes with overlapped decisions (§4.2/§5.2): training
    // proceeds optimistically while the stat report and any prediction-based
    // decision are in flight.
    begin_epoch(id);
  }
}

void HyperDriveCluster::deliver_stat(const AppStat& stat) {
  if (done_) return;
  // (job, epoch) dedup: a retransmitted/duplicated RPC or an epoch re-trained
  // after a crash rollback reports nothing new — recording it again would
  // double-count history, and re-running the policy on it could double-fire
  // decisions that were already taken.
  if (!db_.record_stat(stat)) {
    ++result_.recovery.duplicate_stats_ignored;
    return;
  }

  core::JobEvent event;
  event.job_id = stat.job_id;
  event.epoch = stat.epoch;
  event.perf = stat.perf;
  event.secondary = stat.secondary;
  event.epoch_duration = stat.epoch_duration;
  event.now = simulation_.now();

  policy_->on_application_stat(*this, event);
  if (sim::reaches_target(options_, trace_.target_performance, event, result_)) {
    record(obs::TraceEvent(obs::EventKind::TargetReached)
               .with_job(static_cast<std::int64_t>(stat.job_id))
               .with_epoch(static_cast<std::int64_t>(stat.epoch)));
    finish();
    return;
  }

  // A decision is only worth computing for a job that is still running; a
  // completed/terminated job's pending stat must not spawn a prediction that
  // would needlessly extend the experiment.
  const auto& job = jm_.job(stat.job_id);
  if (job.status != core::JobStatus::Running) return;

  // Decision latency models the learning-curve prediction cost at
  // evaluation-boundary epochs; elsewhere decisions are immediate.
  util::SimTime decision_delay = util::SimTime::zero();
  if (options_.decision_latency && trace_.evaluation_boundary > 0 &&
      stat.epoch % trace_.evaluation_boundary == 0) {
    decision_delay = options_.decision_latency(stat.job_id, stat.epoch, rng_);
    if (stat.node < agents_.size()) agents_[stat.node].note_prediction();
  }
  if (decision_delay <= util::SimTime::zero()) {
    decide(stat.job_id, event, job.incarnation);
  } else {
    simulation_.schedule_after(
        decision_delay, [this, id = stat.job_id, event, inc = job.incarnation] {
          decide(id, event, inc);
        });
  }
}

void HyperDriveCluster::decide(core::JobId id, core::JobEvent event,
                               std::uint64_t incarnation) {
  if (done_) return;
  auto& job = jm_.job(id);
  // The job may have completed, been suspended, or been terminated by a
  // decision for a later epoch while this one was in flight — or crashed and
  // restarted as a new incarnation, for which this decision is stale.
  if (job.incarnation != incarnation) return;
  if (job.status != core::JobStatus::Running) return;

  // Blocking mode: charge the machine-held wait time before acting.
  if (job.waiting_decision) {
    const util::SimTime wait = simulation_.now() - job.wait_started_at;
    job.execution_time += wait;
    if (job.machine) agents_[*job.machine].note_busy(wait);
    job.waiting_decision = false;
  }

  const core::JobDecision decision = policy_->on_iteration_finish(*this, event);
  switch (decision) {
    case core::JobDecision::Continue:
      // In overlapped mode training never stopped; in blocking mode resume
      // the paused job now.
      if (!job.epoch_in_flight && job.epochs_done < job.spec->curve.perf.size()) {
        begin_epoch(id);
      }
      return;
    case core::JobDecision::Suspend:
      if (job.epochs_done >= job.spec->curve.perf.size()) return;  // done anyway
      record(obs::TraceEvent(obs::EventKind::JobSuspend)
                 .with_job(static_cast<std::int64_t>(id))
                 .with_epoch(static_cast<std::int64_t>(job.epochs_done)));
      do_suspend(id);
      return;
    case core::JobDecision::Terminate:
      record(obs::TraceEvent(obs::EventKind::JobTerminate)
                 .with_job(static_cast<std::int64_t>(id))
                 .with_epoch(static_cast<std::int64_t>(job.epochs_done)));
      do_terminate(id);
      return;
  }
}

void HyperDriveCluster::interrupt_training(ManagedJob& job) {
  if (!job.epoch_in_flight) return;
  // Abandon the partial epoch: it produced no validation point and its
  // progress is not in the snapshot (which was taken at the last boundary).
  disarm_progress_deadline(job);
  simulation_.cancel(job.pending_epoch);
  const util::SimTime partial = simulation_.now() - job.epoch_started_at;
  job.execution_time += partial;
  if (job.machine) agents_[*job.machine].note_busy(partial);
  job.epoch_in_flight = false;
}

void HyperDriveCluster::do_suspend(core::JobId id) {
  auto& job = jm_.job(id);
  interrupt_training(job);
  const SuspendOverheadSample overhead = options_.overheads.sample_suspend(rng_);

  core::SuspendSample sample;
  sample.job_id = id;
  sample.latency = overhead.latency;
  sample.snapshot_bytes = overhead.snapshot_bytes;
  result_.suspend_samples.push_back(sample);
  ++result_.suspends;
  ++job.times_suspended;

  job.status = core::JobStatus::Suspended;
  job.execution_time += overhead.latency;
  if (job.machine) agents_[*job.machine].note_busy(overhead.latency);

  // The machine is occupied until the snapshot has been captured; the image
  // is then shipped to the AppStatDB over the RPC fabric (§5.1: "captured
  // model state ... sent to HyperDrive for storage"), whose handler stores
  // it and releases the machine. The capture is cancelled if the node
  // crashes inside this window.
  job.suspend_in_flight = true;
  job.pending_suspend = simulation_.schedule_after(
      overhead.latency, [this, id, overhead] { finish_suspend(id, overhead); });
}

void HyperDriveCluster::finish_suspend(core::JobId id, SuspendOverheadSample overhead) {
  if (done_) return;
  auto& j = jm_.job(id);
  j.suspend_in_flight = false;

  // Agent-side capture/upload failure: nothing durable was produced, so the
  // suspended state is gone — roll back to the previous snapshot (or
  // scratch) and requeue.
  if (injector_.active() && injector_.should_fail_upload()) {
    ++result_.recovery.snapshots_lost;
    record(obs::TraceEvent(obs::EventKind::SnapshotUploadFailed)
               .with_job(static_cast<std::int64_t>(id)));
    rollback_to_durable(j);
    jm_.enqueue_idle(id);
    release_and_allocate(id);
    return;
  }

  auto snapshot = std::make_shared<ModelSnapshot>();
  snapshot->job_id = id;
  snapshot->epoch = j.epochs_done;
  snapshot->size_bytes = overhead.snapshot_bytes;
  // Serialize the actual schedulable state (§5.1): resume decodes this.
  JobSnapshotState state;
  state.job_id = id;
  state.epoch = j.epochs_done;
  state.config = j.spec->config;
  state.history = db_.perf_history(id);
  snapshot->image = SnapshotCodec::encode(state);
  snapshot->stored_at = simulation_.now();
  // Storage-level corruption: the upload arrives but a bit flips. Detected
  // only when a resume tries to decode it (the codec's CRC rejects it) —
  // recovery then falls back to an older snapshot or an AppStatDb replay.
  if (injector_.active() && injector_.should_corrupt_snapshot()) {
    injector_.corrupt(snapshot->image);
    record(obs::TraceEvent(obs::EventKind::SnapshotCorrupted)
               .with_job(static_cast<std::int64_t>(id)));
  }

  Message upload;
  upload.type = MessageType::SnapshotUpload;
  upload.from = j.machine ? static_cast<EndpointId>(*j.machine) : 0;
  upload.to = storage_endpoint_;
  upload.job_id = id;
  upload.payload_bytes = overhead.snapshot_bytes;
  upload.payload = std::move(snapshot);
  bus_.send(std::move(upload), [this, id](const Message&) {
    // Every retransmission was lost: the snapshot never reached storage and
    // the machine is still held — recover exactly like a capture failure.
    if (done_) return;
    auto& job = jm_.job(id);
    if (job.idle || job.status != core::JobStatus::Suspended) return;
    ++result_.recovery.snapshots_lost;
    record(obs::TraceEvent(obs::EventKind::SnapshotUploadLost)
               .with_job(static_cast<std::int64_t>(id)));
    rollback_to_durable(job);
    jm_.enqueue_idle(id);
    release_and_allocate(id);
  });
}

void HyperDriveCluster::do_terminate(core::JobId id) {
  auto& job = jm_.job(id);
  // Wrong-kill oracle (ground truth the scheduler cannot see): this config's
  // curve does reach the target, yet it is being killed while hosted on a
  // node the fault plan has degraded — the decision was corrupted by the
  // gray failure. Benchmarked by bench/ext_straggler; speed-aware POP is
  // expected to drive this to zero.
  if (injector_.active() && job.machine) {
    const bool degraded_host =
        injector_.slowdown_factor(*job.machine, simulation_.now()) > 1.0 ||
        injector_.is_hung(*job.machine, simulation_.now());
    if (degraded_host &&
        job.spec->curve.first_epoch_reaching(trace_.target_performance) != 0) {
      ++result_.recovery.wrong_kills;
      record(obs::TraceEvent(obs::EventKind::WrongKill)
                 .with_job(static_cast<std::int64_t>(id))
                 .with_machine(static_cast<std::int64_t>(*job.machine)));
    }
  }
  interrupt_training(job);
  job.status = core::JobStatus::Terminated;
  ++result_.terminations;
  release_and_allocate(id);
}

void HyperDriveCluster::rollback_to_durable(ManagedJob& job) {
  std::size_t durable = 0;
  if (const auto snap = db_.latest_snapshot(job.id)) {
    durable = std::min(snap->epoch, job.epochs_done);
  }
  result_.recovery.epochs_lost += job.epochs_done - durable;
  job.epochs_done = durable;
  job.status = durable > 0 ? core::JobStatus::Suspended : core::JobStatus::Pending;
  ++job.incarnation;
  ++result_.recovery.jobs_requeued;
  record(obs::TraceEvent(obs::EventKind::JobRequeue)
             .with_job(static_cast<std::int64_t>(job.id))
             .with_epoch(static_cast<std::int64_t>(durable)));
}

void HyperDriveCluster::fail_job_on_crash(ManagedJob& job) {
  // The machine did the partial work even though its result is lost.
  interrupt_training(job);
  if (job.waiting_decision) {
    const util::SimTime wait = simulation_.now() - job.wait_started_at;
    job.execution_time += wait;
    agents_[*job.machine].note_busy(wait);
    job.waiting_decision = false;
  }
  if (job.suspend_in_flight) {
    // The snapshot capture died with the node.
    simulation_.cancel(job.pending_suspend);
    job.suspend_in_flight = false;
    ++result_.recovery.snapshots_lost;
  }
  rollback_to_durable(job);
  rm_.release_machine(*job.machine);
  job.machine.reset();
  jm_.enqueue_idle(job.id);
}

void HyperDriveCluster::crash_node(const NodeCrashEvent& crash) {
  if (done_) return;
  const MachineId m = crash.machine;
  if (m >= agents_.size() || !rm_.is_online(m)) return;

  injector_.note_crash();
  ++result_.recovery.node_crashes;
  record(obs::TraceEvent(obs::EventKind::NodeCrash).with_machine(static_cast<std::int64_t>(m)));

  // Fail whatever occupies the machine: a running job, or one whose snapshot
  // capture / upload is still holding it.
  if (ManagedJob* job = job_on(m)) fail_job_on_crash(*job);
  rm_.set_offline(m);
  // A dead node is the fail-stop machinery's problem: exclude it from
  // heartbeat scrutiny so the watchdog doesn't also quarantine the corpse.
  health_.set_excluded(m, true, simulation_.now());
  // A lease reclaim pending on this machine absorbs the corpse: the slot
  // returns to the pool sick and stays ungrantable until a restart heals it.
  if (pending_reclaim_.erase(m) > 0) {
    parked_sick_.insert(m);
    surrender_slot(m, "reclaim-crash");
  }
  policy_->on_capacity_change(*this);

  if (crash.restart_after < util::SimTime::infinity()) {
    schedule_tracked(fault_events_, simulation_.now() + crash.restart_after,
                     /*restart=*/true, [this, m] { restart_node(m); });
  }

  policy_->on_allocate(*this);
  maybe_finish();
}

void HyperDriveCluster::restart_node(MachineId m) {
  if (done_) return;
  if (rm_.is_online(m)) return;
  if (rm_.is_parked(m)) {
    // The slot was reclaimed by the study arbiter while the node was down:
    // the restart heals it (grantable again) but does not re-admit it — only
    // a lease grant can.
    parked_sick_.erase(m);
    health_.set_excluded(m, false, simulation_.now());
    record(obs::TraceEvent(obs::EventKind::NodeRestart)
               .with_machine(static_cast<std::int64_t>(m))
               .with_detail("parked"));
    return;
  }
  rm_.set_online(m);
  ++result_.recovery.node_restarts;
  // Re-admit to health scrutiny with a fresh liveness clock (a node must not
  // be Suspect the instant it restarts).
  health_.set_excluded(m, false, simulation_.now());
  record(obs::TraceEvent(obs::EventKind::NodeRestart).with_machine(static_cast<std::int64_t>(m)));
  policy_->on_capacity_change(*this);
  policy_->on_allocate(*this);
  maybe_finish();
}

void HyperDriveCluster::spot_warning(const SpotPreemptionEvent& preemption) {
  if (done_) return;
  const MachineId m = preemption.machine;
  if (m >= agents_.size() || !rm_.is_online(m)) return;

  injector_.note_spot_warning();
  record(obs::TraceEvent(obs::EventKind::SpotWarning)
             .with_machine(static_cast<std::int64_t>(m)));
  draining_.insert(m);
  // The provider reclaims the node at warning + grace, busy or not.
  schedule_tracked(fault_events_, simulation_.now() + preemption.warning, /*restart=*/false,
                   [this, preemption] { spot_preempt(preemption); });

  if (!rm_.is_busy(m)) {
    // Idle: nothing to drain — hand the node back immediately.
    spot_offline(m);
  } else if (ManagedJob* job = job_on(m);
             job != nullptr && !job->suspend_in_flight &&
             job->status == core::JobStatus::Running) {
    // Drain: cleanly snapshot-migrate the occupant (the PR-2 straggler path —
    // never a kill, so the wrong-kill oracle stays at zero); the machine goes
    // offline the moment its release fires.
    ++result_.recovery.jobs_migrated;
    record(obs::TraceEvent(obs::EventKind::JobMigrate)
               .with_job(static_cast<std::int64_t>(job->id))
               .with_machine(static_cast<std::int64_t>(m))
               .with_detail("spot"));
    do_suspend(job->id);
  }
  policy_->on_allocate(*this);
  maybe_finish();
}

void HyperDriveCluster::spot_preempt(const SpotPreemptionEvent& preemption) {
  if (done_) return;
  const MachineId m = preemption.machine;
  injector_.note_spot_preemption();
  record(obs::TraceEvent(obs::EventKind::SpotPreempted)
             .with_machine(static_cast<std::int64_t>(m)));
  if (draining_.count(m) > 0) {
    // Still draining at the deadline: the provider yanks the node — whatever
    // occupies it fails exactly like a crash (snapshot rollback + requeue).
    if (ManagedJob* job = job_on(m)) fail_job_on_crash(*job);
    spot_offline(m);
  }
  // else: the drain completed early — the node already left the membership.
  policy_->on_allocate(*this);
  maybe_finish();
}

void HyperDriveCluster::spot_offline(MachineId m) {
  draining_.erase(m);
  // The node never returns (no restart event), so it parks permanently
  // sick — ungrantable by the arbiter.
  health_.set_excluded(m, true, simulation_.now());
  parked_sick_.insert(m);
  if (rm_.is_parked(m)) {
    // A lease reclaim surrendered the slot mid-window; it just stays sick.
    if (!done_ && policy_ != nullptr) policy_->on_capacity_change(*this);
    return;
  }
  if (rm_.is_online(m)) rm_.set_offline(m);
  // Park the corpse so the study stops paying for it; a reclaim that was
  // already pending is absorbed, like the crash path.
  const char* reason = pending_reclaim_.erase(m) > 0 ? "reclaim-spot" : "spot";
  surrender_slot(m, reason);
}

void HyperDriveCluster::schedule_tracked(std::map<sim::EventHandle, bool>& tracked,
                                         util::SimTime at, bool restart,
                                         std::function<void()> fire) {
  auto handle_box = std::make_shared<sim::EventHandle>(0);
  *handle_box =
      simulation_.schedule_at(at, [&tracked, handle_box, fire = std::move(fire)] {
        tracked.erase(*handle_box);
        fire();
      });
  tracked.emplace(*handle_box, restart);
}

ManagedJob* HyperDriveCluster::job_on(MachineId machine) {
  for (auto& [id, job] : jm_.all()) {
    if (job.machine == machine) return &job;  // one job per machine
  }
  return nullptr;
}

void HyperDriveCluster::schedule_crashes() {
  for (const auto& crash : options_.fault_plan.crashes) {
    schedule_tracked(fault_events_, crash.at, /*restart=*/false,
                     [this, crash] { crash_node(crash); });
  }
  for (const auto& preemption : options_.fault_plan.spot_preemptions) {
    schedule_tracked(fault_events_, preemption.at, /*restart=*/false,
                     [this, preemption] { spot_warning(preemption); });
  }
}

// --- gray-failure detection & mitigation (DESIGN.md §7) ----------------------

void HyperDriveCluster::schedule_health() {
  if (!options_.health.enabled) return;
  const util::SimTime at = simulation_.now() + options_.health.heartbeat_interval;
  for (std::size_t m = 0; m < agents_.size(); ++m) {
    schedule_tracked(infra_events_, at, /*restart=*/false,
                     [this, m] { heartbeat_tick(static_cast<MachineId>(m)); });
  }
  schedule_tracked(infra_events_, at, /*restart=*/false, [this] { watchdog_tick(); });
}

void HyperDriveCluster::heartbeat_tick(MachineId m) {
  if (done_) return;
  // A crashed node is silent because it is dead (the fail-stop machinery's
  // problem); a hung node is silent because it is wedged (exactly the signal
  // the watchdog exists to catch). Everyone else probes on schedule —
  // including quarantined and probation nodes, whose liveness still matters.
  if (!health_.is_excluded(m) && !injector_.is_hung(m, simulation_.now())) {
    auto beat = std::make_shared<Heartbeat>();
    beat->machine = m;
    beat->seq = agents_[m].next_heartbeat_seq();
    beat->epochs_run = agents_[m].epochs_run();
    beat->sent_at = simulation_.now();
    Message probe;
    probe.type = MessageType::Heartbeat;
    probe.from = static_cast<EndpointId>(m);
    probe.to = scheduler_endpoint_;
    probe.payload_bytes = kHeartbeatRpcBytes;
    probe.payload = std::move(beat);
    bus_.send(std::move(probe));
  }
  schedule_tracked(infra_events_, simulation_.now() + options_.health.heartbeat_interval,
                   /*restart=*/false, [this, m] { heartbeat_tick(m); });
}

void HyperDriveCluster::handle_heartbeat(const Heartbeat& beat) {
  if (done_) return;
  const bool was_suspect = health_.health(beat.machine) == NodeHealth::Suspect;
  health_.note_heartbeat(beat, simulation_.now());
  if (was_suspect) {
    record(obs::TraceEvent(obs::EventKind::NodeSuspectCleared)
               .with_machine(static_cast<std::int64_t>(beat.machine)));
  }
  maybe_finish();
}

void HyperDriveCluster::watchdog_tick() {
  if (done_) return;
  const auto report = health_.watchdog_scan(simulation_.now());
  for (const MachineId m : report.newly_suspect) {
    record(obs::TraceEvent(obs::EventKind::NodeSuspect)
               .with_machine(static_cast<std::int64_t>(m)));
  }
  for (const MachineId m : report.to_quarantine) {
    // Silent past the escalation deadline: treat the node as wedged. Its job
    // cannot be cleanly suspended (the node does not respond), so it is
    // rolled back to its last durable snapshot and requeued — the same
    // recovery a crash uses — and the node goes offline pending probation.
    health_.force_quarantine(m);
    record(obs::TraceEvent(obs::EventKind::NodeQuarantine)
               .with_machine(static_cast<std::int64_t>(m))
               .with_detail("silent"));
    if (ManagedJob* job = job_on(m)) {
      ++result_.recovery.jobs_migrated;
      record(obs::TraceEvent(obs::EventKind::JobMigrate)
                 .with_job(static_cast<std::int64_t>(job->id))
                 .with_machine(static_cast<std::int64_t>(m))
                 .with_detail("silent"));
      fail_job_on_crash(*job);
    }
    finalize_quarantine(m);
    policy_->on_allocate(*this);
  }
  schedule_tracked(infra_events_, simulation_.now() + options_.health.heartbeat_interval,
                   /*restart=*/false, [this] { watchdog_tick(); });
  maybe_finish();
}

void HyperDriveCluster::arm_progress_deadline(ManagedJob& job) {
  if (!options_.health.enabled) return;
  const util::SimTime deadline = job.epoch_expected * kHangDeadlineFactor;
  job.deadline_armed = true;
  job.progress_deadline = simulation_.schedule_after(
      deadline, [this, id = job.id, inc = job.incarnation] { on_progress_deadline(id, inc); });
}

void HyperDriveCluster::disarm_progress_deadline(ManagedJob& job) {
  if (!job.deadline_armed) return;
  simulation_.cancel(job.progress_deadline);
  job.deadline_armed = false;
}

void HyperDriveCluster::on_progress_deadline(core::JobId id, std::uint64_t incarnation) {
  if (done_) return;
  auto& job = jm_.job(id);
  // Stale if the epoch completed, the job migrated/crashed (new incarnation),
  // or a policy decision already pulled it off the machine.
  if (job.incarnation != incarnation || !job.epoch_in_flight || !job.machine) return;
  job.deadline_armed = false;
  const MachineId m = *job.machine;
  ++result_.recovery.hung_jobs_detected;
  record(obs::TraceEvent(obs::EventKind::HangDetected)
             .with_job(static_cast<std::int64_t>(id))
             .with_machine(static_cast<std::int64_t>(m)));
  // The epoch made no observable progress for kHangDeadlineFactor x its
  // expected duration: presume the node wedged. Snapshot-rollback migration
  // (the PR-1 crash path — the hung node cannot serve a clean suspend) plus
  // quarantine of the host.
  health_.force_quarantine(m);
  ++result_.recovery.jobs_migrated;
  record(obs::TraceEvent(obs::EventKind::JobMigrate)
             .with_job(static_cast<std::int64_t>(id))
             .with_machine(static_cast<std::int64_t>(m))
             .with_detail("hung"));
  fail_job_on_crash(job);
  finalize_quarantine(m);
  policy_->on_allocate(*this);
  maybe_finish();
}

void HyperDriveCluster::finalize_quarantine(MachineId m) {
  rm_.set_offline(m);
  ++result_.recovery.nodes_quarantined;
  record(obs::TraceEvent(obs::EventKind::NodeQuarantine)
             .with_machine(static_cast<std::int64_t>(m)));
  // Probation re-admission restores capacity exactly like a crash restart,
  // so it registers as a restart-flavoured fault event: maybe_finish keeps
  // the experiment alive while jobs wait for the node to come back.
  schedule_tracked(fault_events_, simulation_.now() + options_.health.probation_after,
                   /*restart=*/true, [this, m] { begin_probation_for(m); });
  // A lease reclaim pending on this machine absorbs it in place: the slot is
  // returned to the pool sick and stays ungrantable until probation clears it.
  if (pending_reclaim_.erase(m) > 0) {
    parked_sick_.insert(m);
    surrender_slot(m, "reclaim-quarantine");
  }
  policy_->on_capacity_change(*this);
}

void HyperDriveCluster::begin_probation_for(MachineId m) {
  if (done_) return;
  if (rm_.is_online(m)) return;
  if (rm_.is_parked(m)) {
    // Quarantined slot absorbed by a lease reclaim: probation clears the
    // sickness, the slot becomes grantable, membership waits for a grant.
    parked_sick_.erase(m);
    health_.begin_probation(m, simulation_.now());
    record(obs::TraceEvent(obs::EventKind::NodeProbation)
               .with_machine(static_cast<std::int64_t>(m))
               .with_detail("parked"));
    return;
  }
  health_.begin_probation(m, simulation_.now());
  rm_.set_online(m);
  record(obs::TraceEvent(obs::EventKind::NodeProbation)
             .with_machine(static_cast<std::int64_t>(m)));
  policy_->on_capacity_change(*this);
  policy_->on_allocate(*this);
  maybe_finish();
}

void HyperDriveCluster::release_and_allocate(core::JobId id) {
  auto& job = jm_.job(id);
  std::optional<MachineId> released;
  if (job.machine) {
    released = *job.machine;
    rm_.release_machine(*job.machine);
    job.machine.reset();
  }
  if (done_) return;
  // A machine condemned while its job was being suspended off it goes
  // offline the moment it is free (set_offline requires an idle machine);
  // finalize_quarantine absorbs a pending lease reclaim itself.
  if (released && pending_quarantine_.erase(*released) > 0) {
    finalize_quarantine(*released);
  }
  // A machine picked for lease reclaim parks the moment it is free.
  if (released && pending_reclaim_.erase(*released) > 0) {
    surrender_slot(*released, "reclaim");
  }
  // A draining spot machine is handed back to the provider the moment it is
  // free (spot_offline handles the already-parked race itself).
  if (released && draining_.count(*released) > 0) {
    spot_offline(*released);
  }
  policy_->on_allocate(*this);
  maybe_finish();
}

void HyperDriveCluster::maybe_finish() {
  if (done_) return;
  // Quiescent: every held slot is idle and none of this cluster's RPCs (stat
  // reports, snapshot uploads, heartbeats) is in flight. Nothing else still
  // queued — a future crash, a health tick, a stale startup or decision —
  // can move a job by itself.
  if (rm_.idle() != rm_.total() || bus_.in_flight() > 0) return;
  if (!jm_.active_jobs().empty()) {
    // Queued work waits only for capacity that can still arrive: a crashed
    // or quarantined node's restart/probation, or a parked healthy slot the
    // arbiter can grant. Idle held slots the policy leaves unused, or a
    // fleet lost for good, end the run here.
    const bool restart_pending = std::any_of(fault_events_.begin(), fault_events_.end(),
                                             [](const auto& e) { return e.second; });
    if (restart_pending || rm_.parked() > parked_sick_.size()) return;
  }
  finish();
}

void HyperDriveCluster::finish() {
  if (done_) return;
  done_ = true;
  // The clock belongs to the owner and may keep running (for other studies),
  // so everything this cluster scheduled is cancelled explicitly and every
  // held slot drains back. Held jobs keep exactly the accounting they have:
  // neither partial epochs nor status changes are charged.
  finished_at_ = simulation_.now();
  accrue_slot_time();
  for (const auto& [handle, is_restart] : fault_events_) simulation_.cancel(handle);
  fault_events_.clear();
  for (const auto& [handle, unused] : infra_events_) simulation_.cancel(handle);
  infra_events_.clear();
  if (timeout_armed_) {
    simulation_.cancel(timeout_event_);
    timeout_armed_ = false;
  }
  pending_quarantine_.clear();
  pending_reclaim_.clear();
  draining_.clear();
  for (auto& [id, job] : jm_.all()) {
    if (job.epoch_in_flight) {
      disarm_progress_deadline(job);
      simulation_.cancel(job.pending_epoch);
      job.epoch_in_flight = false;
    }
    if (job.suspend_in_flight) {
      simulation_.cancel(job.pending_suspend);
      job.suspend_in_flight = false;
    }
    if (job.deadline_armed) disarm_progress_deadline(job);
    if (job.machine) {
      rm_.release_machine(*job.machine);
      job.machine.reset();
    }
  }
  // Park every slot still charged to this study and hand each back (drain
  // parks are not counted as arbiter reclaims).
  for (std::size_t m = 0; m < rm_.configured(); ++m) {
    const auto id = static_cast<MachineId>(m);
    if (rm_.is_parked(id)) continue;
    rm_.park_machine(id);
    if (on_slot_released) on_slot_released();
  }
  if (on_finished) on_finished();
}

void HyperDriveCluster::record(obs::TraceEvent event) {
  if (options_.obs.sink == nullptr) return;
  event.time = simulation_.now();
  event.study = options_.study_label;
  options_.obs.emit(event);
}

void HyperDriveCluster::finalize_result() {
  result_.total_time =
      done_ ? finished_at_ : std::min(simulation_.now(), options_.max_experiment_time);
  result_.study = options_.study_label;
  jm_.collect(result_, [this](core::JobId id) -> const std::vector<double>& {
    return db_.perf_history(id);
  });
  result_.retransmissions = bus_.stats().retransmissions;
  // Close the slot-seconds and spend integrals at the experiment's end time.
  if (result_.total_time > slots_accrued_until_) {
    const util::SimTime dt = result_.total_time - slots_accrued_until_;
    slot_seconds_ +=
        util::SimTime::seconds(static_cast<double>(held_slots()) * dt.to_seconds());
    spend_usd_ += held_price_rate() * dt.to_hours();
    slots_accrued_until_ = result_.total_time;
  }
  result_.slot_seconds = slot_seconds_;
  result_.spend_usd = spend_usd_;
  result_.lease_grants = lease_grants_;
  result_.lease_reclaims = lease_reclaims_;
  if (options_.obs.metrics != nullptr) publish_metrics();
}

namespace {
/// Suspend-latency histogram buckets (seconds): the calibrated overhead
/// models put typical suspends in the low seconds, with resume-transfer
/// outliers reaching minutes.
const std::vector<double> kSuspendLatencyBounds = {0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0};
}  // namespace

void preregister_cluster_metrics(obs::MetricsRegistry& registry) {
  // Must list, in order, exactly the metrics publish_metrics() touches.
  for (const char* name : {
           "cluster.jobs_started", "cluster.suspends", "cluster.terminations",
           "cluster.clones", "cluster.epochs_trained", "cluster.retransmissions",
           "recovery.node_crashes", "recovery.node_restarts", "recovery.jobs_requeued",
           "recovery.epochs_lost", "recovery.snapshots_lost",
           "recovery.snapshot_restore_failures", "recovery.stat_reports_lost",
           "recovery.duplicate_stats_ignored", "recovery.jobs_migrated",
           "recovery.nodes_quarantined", "recovery.nodes_reinstated",
           "recovery.hung_jobs_detected", "recovery.wrong_kills",
           "bus.messages", "bus.retransmissions", "bus.acks_sent", "bus.dropped",
           "bus.dropped_endpoint_down", "bus.duplicates_suppressed",
           "bus.duplicates_delivered", "bus.delayed", "bus.undeliverable",
           "fault.messages_dropped", "fault.messages_duplicated", "fault.messages_delayed",
           "fault.snapshot_uploads_failed", "fault.snapshots_corrupted",
           "fault.node_crashes", "fault.epochs_slowed", "fault.epochs_stalled",
           "fault.epochs_hung", "lease.grants", "lease.reclaims",
           "elastic.nodes_acquired", "elastic.nodes_released",
           "elastic.spot_warnings", "elastic.spot_preemptions",
       }) {
    (void)registry.counter(name);
  }
  (void)registry.gauge("elastic.spend_usd");
  (void)registry.histogram("cluster.suspend_latency_s", kSuspendLatencyBounds);
}

void HyperDriveCluster::publish_metrics() {
  obs::MetricsRegistry& reg = *options_.obs.metrics;
  const auto add = [&reg](const char* name, std::uint64_t value) {
    if (value > 0) reg.counter(name).add(value);
  };
  std::size_t epochs_trained = 0;
  for (const core::JobRunStats& stats : result_.job_stats) {
    epochs_trained += stats.epochs_completed;
  }
  add("cluster.jobs_started", result_.jobs_started);
  add("cluster.suspends", result_.suspends);
  add("cluster.terminations", result_.terminations);
  add("cluster.clones", result_.clones);
  add("cluster.epochs_trained", epochs_trained);
  add("cluster.retransmissions", result_.retransmissions);
  const core::RecoveryStats& rec = result_.recovery;
  add("recovery.node_crashes", rec.node_crashes);
  add("recovery.node_restarts", rec.node_restarts);
  add("recovery.jobs_requeued", rec.jobs_requeued);
  add("recovery.epochs_lost", rec.epochs_lost);
  add("recovery.snapshots_lost", rec.snapshots_lost);
  add("recovery.snapshot_restore_failures", rec.snapshot_restore_failures);
  add("recovery.stat_reports_lost", rec.stat_reports_lost);
  add("recovery.duplicate_stats_ignored", rec.duplicate_stats_ignored);
  add("recovery.jobs_migrated", rec.jobs_migrated);
  add("recovery.nodes_quarantined", rec.nodes_quarantined);
  add("recovery.nodes_reinstated", rec.nodes_reinstated);
  add("recovery.hung_jobs_detected", rec.hung_jobs_detected);
  add("recovery.wrong_kills", rec.wrong_kills);
  const MessageBusStats& bus = bus_.stats();
  add("bus.messages", bus.messages);
  add("bus.retransmissions", bus.retransmissions);
  add("bus.acks_sent", bus.acks_sent);
  add("bus.dropped", bus.dropped);
  add("bus.dropped_endpoint_down", bus.dropped_endpoint_down);
  add("bus.duplicates_suppressed", bus.duplicates_suppressed);
  add("bus.duplicates_delivered", bus.duplicates_delivered);
  add("bus.delayed", bus.delayed);
  add("bus.undeliverable", bus.undeliverable);
  const FaultStats& fault = injector_.stats();
  add("fault.messages_dropped", fault.messages_dropped);
  add("fault.messages_duplicated", fault.messages_duplicated);
  add("fault.messages_delayed", fault.messages_delayed);
  add("fault.snapshot_uploads_failed", fault.snapshot_uploads_failed);
  add("fault.snapshots_corrupted", fault.snapshots_corrupted);
  add("fault.node_crashes", fault.node_crashes);
  add("fault.epochs_slowed", fault.epochs_slowed);
  add("fault.epochs_stalled", fault.epochs_stalled);
  add("fault.epochs_hung", fault.epochs_hung);
  add("lease.grants", lease_grants_);
  add("lease.reclaims", lease_reclaims_);
  add("elastic.spot_warnings", fault.spot_warnings);
  add("elastic.spot_preemptions", fault.spot_preemptions);
  if (!result_.suspend_samples.empty()) {
    obs::Histogram& latency =
        reg.histogram("cluster.suspend_latency_s", kSuspendLatencyBounds);
    for (const core::SuspendSample& sample : result_.suspend_samples) {
      latency.observe(sample.latency.to_seconds());
    }
  }
}

// --- lifecycle and lease protocol (multi-study scheduling, DESIGN.md §9) -----

void HyperDriveCluster::start(core::SchedulingPolicy& policy) {
  policy_ = &policy;
  result_ = core::ExperimentResult{};
  result_.policy_name = std::string(policy.name());
  slots_accrued_until_ = simulation_.now();

  policy.on_experiment_start(*this);
  policy.on_allocate(*this);
  schedule_crashes();
  schedule_health();
  // Tmax is an explicit event, not a run_until horizon: the clock may be
  // shared. Priority 100: same-time job events complete before the study is
  // declared out of time.
  if (options_.max_experiment_time < util::SimTime::infinity()) {
    timeout_event_ = simulation_.schedule_at(
        options_.max_experiment_time,
        [this] {
          timeout_armed_ = false;
          if (done_) return;
          record(obs::TraceEvent(obs::EventKind::StudyTimeout));
          finish();
        },
        /*priority=*/100);
    timeout_armed_ = true;
  }
  maybe_finish();  // empty trace / nothing runnable: finish at t=0
}

void HyperDriveCluster::accrue_slot_time() {
  const util::SimTime now = simulation_.now();
  if (now > slots_accrued_until_) {
    const util::SimTime dt = now - slots_accrued_until_;
    slot_seconds_ +=
        util::SimTime::seconds(static_cast<double>(held_slots()) * dt.to_seconds());
    spend_usd_ += held_price_rate() * dt.to_hours();
    slots_accrued_until_ = now;
  }
}

double HyperDriveCluster::held_price_rate() const {
  double rate = 0.0;
  for (NodeClassId c = 0; c < catalog_.classes(); ++c) {
    const double price = catalog_.at(c).price_per_hour;
    const std::size_t end = std::min(catalog_.block_end(c), rm_.configured());
    for (std::size_t m = catalog_.block_begin(c); m < end; ++m) {
      if (!rm_.is_parked(static_cast<MachineId>(m))) rate += price;
    }
  }
  return rate;
}

CapacityView HyperDriveCluster::held_capacity() const {
  CapacityView view;
  for (NodeClassId c = 0; c < catalog_.classes(); ++c) {
    std::size_t held = 0;
    const std::size_t end = std::min(catalog_.block_end(c), rm_.configured());
    for (std::size_t m = catalog_.block_begin(c); m < end; ++m) {
      if (!rm_.is_parked(static_cast<MachineId>(m))) ++held;
    }
    view.set(c, held);
  }
  return view;
}

void HyperDriveCluster::surrender_slot(MachineId machine, const char* reason) {
  accrue_slot_time();
  rm_.park_machine(machine);
  ++lease_reclaims_;
  record(obs::TraceEvent(obs::EventKind::LeasePark)
             .with_machine(static_cast<std::int64_t>(machine))
             .with_detail(reason));
  if (!done_ && policy_ != nullptr) policy_->on_capacity_change(*this);
  if (on_slot_released) on_slot_released();
}

void HyperDriveCluster::set_lease_target(const CapacityView& capacity) {
  // Always store the full catalog width, clamped to each class block, so
  // lease_target_ comparisons are well-defined.
  for (NodeClassId c = 0; c < catalog_.classes(); ++c) {
    const std::size_t end = std::min(catalog_.block_end(c), rm_.configured());
    const std::size_t block = end - std::min(catalog_.block_begin(c), end);
    lease_target_.set(c, std::min(capacity.of(c), block));
  }
  if (!done_) apply_lease();
}

void HyperDriveCluster::apply_lease() {
  // Reclaim class by class (id order); within a class the original 3-tier
  // scan runs over the class's machine block — for the single-class catalog
  // this is exactly the pre-elastic global scan.
  for (NodeClassId c = 0; c < catalog_.classes(); ++c) {
    const std::size_t begin = std::min(catalog_.block_begin(c), rm_.configured());
    const std::size_t end = std::min(catalog_.block_end(c), rm_.configured());
    const auto excess = [&] {
      std::size_t held = 0;
      for (std::size_t m = begin; m < end; ++m) {
        if (!rm_.is_parked(static_cast<MachineId>(m))) ++held;
      }
      for (const MachineId m : pending_reclaim_) {
        if (m >= begin && m < end) --held;
      }
      return held > lease_target_.of(c) ? held - lease_target_.of(c) : 0;
    };
    while (excess() > 0) {
      // 1. An idle online slot parks immediately (highest id first, so grants
      //    — which unpark the lowest id — walk the same frontier).
      std::optional<MachineId> idle_pick;
      for (std::size_t m = end; m-- > begin;) {
        const auto id = static_cast<MachineId>(m);
        if (rm_.is_online(id) && !rm_.is_busy(id) && pending_quarantine_.count(id) == 0) {
          idle_pick = id;
          break;
        }
      }
      if (idle_pick) {
        surrender_slot(*idle_pick, "reclaim");
        continue;
      }
      // 2. A crashed/quarantined slot is absorbed: the arbiter takes the
      //    capacity charge off this study, and the slot becomes grantable only
      //    after its restart/probation event declares it healthy again.
      std::optional<MachineId> sick_pick;
      for (std::size_t m = end; m-- > begin;) {
        const auto id = static_cast<MachineId>(m);
        if (!rm_.is_online(id) && !rm_.is_parked(id)) {
          sick_pick = id;
          break;
        }
      }
      if (sick_pick) {
        parked_sick_.insert(*sick_pick);
        surrender_slot(*sick_pick, "reclaim-offline");
        continue;
      }
      // 3. A busy slot: snapshot-migrate the job off it (never kill — the
      //    reclaim is the arbiter's decision, not the policy's), park on
      //    release.
      std::optional<MachineId> busy_pick;
      for (std::size_t m = end; m-- > begin;) {
        const auto id = static_cast<MachineId>(m);
        if (rm_.is_busy(id) && pending_reclaim_.count(id) == 0) {
          busy_pick = id;
          break;
        }
      }
      if (!busy_pick) break;  // everything left is already being reclaimed
      pending_reclaim_.insert(*busy_pick);
      ManagedJob* job = job_on(*busy_pick);
      if (job != nullptr && !job->suspend_in_flight &&
          job->status == core::JobStatus::Running) {
        ++result_.recovery.jobs_migrated;
        record(obs::TraceEvent(obs::EventKind::LeaseMigrate)
                   .with_job(static_cast<std::int64_t>(job->id))
                   .with_machine(static_cast<std::int64_t>(*busy_pick)));
        do_suspend(job->id);
      }
    }
  }
}

bool HyperDriveCluster::grant_one(NodeClassId node_class) {
  if (done_) return false;
  if (node_class >= catalog_.classes()) return false;
  const std::size_t begin = std::min(catalog_.block_begin(node_class), rm_.configured());
  const std::size_t end = std::min(catalog_.block_end(node_class), rm_.configured());
  std::size_t held = 0;
  for (std::size_t m = begin; m < end; ++m) {
    if (!rm_.is_parked(static_cast<MachineId>(m))) ++held;
  }
  if (held >= lease_target_.of(node_class)) return false;
  for (std::size_t m = begin; m < end; ++m) {
    const auto id = static_cast<MachineId>(m);
    if (!rm_.is_parked(id) || parked_sick_.count(id) > 0) continue;
    accrue_slot_time();
    rm_.unpark_machine(id);
    ++lease_grants_;
    record(obs::TraceEvent(obs::EventKind::LeaseGrant)
               .with_machine(static_cast<std::int64_t>(id)));
    // A slot can sit parked for a long stretch; restart its liveness clock so
    // the watchdog judges it from the grant, not from before the lease.
    if (options_.health.enabled) health_.set_excluded(id, false, simulation_.now());
    policy_->on_capacity_change(*this);
    policy_->on_allocate(*this);
    return true;
  }
  return false;
}

void HyperDriveCluster::cancel() {
  if (done_) return;
  record(obs::TraceEvent(obs::EventKind::StudyCancelled));
  finish();
}

core::ExperimentResult HyperDriveCluster::collect() {
  finalize_result();
  return result_;
}

void HyperDriveCluster::encode_state(util::ByteWriter& w) const {
  const auto time = [&w](util::SimTime t) { w.f64(t.to_seconds()); };
  const auto rng = [&w](const util::RngState& s) {
    for (const std::uint64_t word : s.state) w.u64(word);
    w.u64(s.seed);
    w.f64(s.spare_normal);
    w.u8(s.has_spare_normal ? 1 : 0);
  };

  // Machines: membership, lease, occupancy.
  w.u32(static_cast<std::uint32_t>(rm_.configured()));
  for (MachineId m = 0; m < rm_.configured(); ++m) {
    std::uint8_t bits = 0;
    if (rm_.is_online(m)) bits |= 1;
    if (rm_.is_parked(m)) bits |= 2;
    if (rm_.is_busy(m)) bits |= 4;
    w.u8(bits);
  }

  // Jobs: every lifecycle field except sim event handles (those are process-
  // local names for closures the replay rebuilds deterministically).
  w.u64(jm_.idle_counter());
  w.u32(static_cast<std::uint32_t>(jm_.all().size()));
  for (const auto& [id, job] : jm_.all()) {
    w.u64(id);
    w.u8(static_cast<std::uint8_t>(job.status));
    w.u64(job.epochs_done);
    w.f64(job.priority);
    w.u64(job.idle_seq);
    w.u8(static_cast<std::uint8_t>((job.idle ? 1 : 0) | (job.epoch_in_flight ? 2 : 0) |
                                   (job.waiting_decision ? 4 : 0) |
                                   (job.suspend_in_flight ? 8 : 0) |
                                   (job.deadline_armed ? 16 : 0)));
    w.u32(job.machine ? *job.machine + 1 : 0);
    time(job.execution_time);
    time(job.training_time);
    time(job.normalized_training_time);
    w.u64(job.times_suspended);
    time(job.epoch_started_at);
    time(job.wait_started_at);
    time(job.epoch_expected);
    w.u64(job.incarnation);

    // AppStatDb fingerprint for this job: contiguous history values plus a
    // summary of every durable snapshot (image bytes digested by CRC — the
    // images themselves can dwarf the rest of the checkpoint).
    const auto& history = db_.perf_history(id);
    w.u32(static_cast<std::uint32_t>(db_.stats(id).size()));
    w.u32(static_cast<std::uint32_t>(history.size()));
    for (const double y : history) w.f64(y);
    const auto& snaps = db_.snapshots(id);
    w.u32(static_cast<std::uint32_t>(snaps.size()));
    for (const ModelSnapshot& snap : snaps) {
      w.u64(snap.epoch);
      w.f64(snap.size_bytes);
      w.u64(snap.image.size());
      w.u32(crc32(snap.image.data(), snap.image.size()));
      time(snap.stored_at);
    }
  }
  w.u32(static_cast<std::uint32_t>(result_.suspend_samples.size()));

  // Node agents (execution accounting + heartbeat sequencing).
  for (const NodeAgent& agent : agents_) {
    time(agent.busy_time());
    w.u64(agent.epochs_run());
    w.u64(agent.predictions_run());
    w.u64(agent.heartbeats_sent());
  }

  // RNG streams: the cluster's jitter/latency stream and the injector's
  // fault-decision stream.
  rng(rng_.state());
  rng(injector_.rng_state());

  // Message fabric: logical traffic so far plus in-flight deliveries.
  const MessageBusStats& bus = bus_.stats();
  w.u64(bus.messages);
  w.f64(bus.bytes);
  w.u32(static_cast<std::uint32_t>(bus.per_type.size()));
  for (const auto& [type, count] : bus.per_type) {
    w.u8(static_cast<std::uint8_t>(type));
    w.u64(count);
  }
  w.u64(bus.retransmissions);
  w.f64(bus.retransmitted_bytes);
  w.u64(bus.acks_sent);
  w.f64(bus.ack_bytes);
  w.u64(bus.dropped);
  w.u64(bus.dropped_endpoint_down);
  w.u64(bus.duplicates_suppressed);
  w.u64(bus.duplicates_delivered);
  w.u64(bus.delayed);
  w.u64(bus.undeliverable);
  w.u64(bus_.in_flight());

  // Fault + health accounting.
  const FaultStats& faults = injector_.stats();
  w.u64(faults.messages_dropped);
  w.u64(faults.messages_duplicated);
  w.u64(faults.messages_delayed);
  w.u64(faults.snapshot_uploads_failed);
  w.u64(faults.snapshots_corrupted);
  w.u64(faults.node_crashes);
  w.u64(faults.epochs_slowed);
  w.u64(faults.epochs_stalled);
  w.u64(faults.epochs_hung);
  w.u64(faults.spot_warnings);
  w.u64(faults.spot_preemptions);
  for (MachineId m = 0; m < rm_.configured(); ++m) {
    w.u8(static_cast<std::uint8_t>(health_.health(m)));
    w.f64(health_.speed_score(m));
    w.u8(health_.is_excluded(m) ? 1 : 0);
  }
  const HealthStats& hs = health_.stats();
  w.u64(hs.heartbeats_received);
  w.u64(hs.suspects_declared);
  w.u64(hs.suspects_recovered);
  w.u64(hs.slow_strikes);
  w.u64(hs.quarantines);
  w.u64(hs.probations);
  w.u64(hs.reinstatements);

  // Result accumulators mutated mid-run.
  w.u8(result_.reached_target ? 1 : 0);
  time(result_.time_to_target);
  w.u64(result_.winning_job);
  w.f64(result_.best_perf);
  w.u64(result_.suspends);
  w.u64(result_.terminations);
  w.u64(result_.jobs_started);
  w.u64(result_.clones);
  w.u64(result_.recovery.node_crashes);
  w.u64(result_.recovery.node_restarts);
  w.u64(result_.recovery.jobs_requeued);
  w.u64(result_.recovery.epochs_lost);
  w.u64(result_.recovery.snapshots_lost);
  w.u64(result_.recovery.snapshot_restore_failures);
  w.u64(result_.recovery.stat_reports_lost);
  w.u64(result_.recovery.duplicate_stats_ignored);
  w.u64(result_.recovery.jobs_migrated);
  w.u64(result_.recovery.nodes_quarantined);
  w.u64(result_.recovery.nodes_reinstated);
  w.u64(result_.recovery.hung_jobs_detected);
  w.u64(result_.recovery.wrong_kills);

  // Lease protocol state. Bit 2 is a retired flag every checkpointed
  // cluster set; it stays set so HDCK frames keep their bytes.
  w.u8(static_cast<std::uint8_t>((done_ ? 1 : 0) | 2 | (timeout_armed_ ? 4 : 0)));
  w.u32(static_cast<std::uint32_t>(lease_target_.classes()));
  for (NodeClassId c = 0; c < lease_target_.classes(); ++c) w.u64(lease_target_.of(c));
  w.u32(static_cast<std::uint32_t>(pending_reclaim_.size()));
  for (const MachineId m : pending_reclaim_) w.u32(m);
  w.u32(static_cast<std::uint32_t>(parked_sick_.size()));
  for (const MachineId m : parked_sick_) w.u32(m);
  w.u32(static_cast<std::uint32_t>(pending_quarantine_.size()));
  for (const MachineId m : pending_quarantine_) w.u32(m);
  w.u32(static_cast<std::uint32_t>(draining_.size()));
  for (const MachineId m : draining_) w.u32(m);
  time(finished_at_);
  time(slot_seconds_);
  time(slots_accrued_until_);
  w.f64(spend_usd_);
  w.u64(lease_grants_);
  w.u64(lease_reclaims_);

  // Zero count and digest words where the removed string event log's were,
  // so HDCK v2 frames keep their layout and bytes.
  w.u64(0);
  w.u64(0);
}

core::ExperimentResult run_cluster_experiment(const workload::Trace& trace,
                                              core::SchedulingPolicy& policy,
                                              const ClusterOptions& options) {
  sim::Simulation simulation;
  HyperDriveCluster cluster(trace, options, simulation);
  cluster.on_finished = [&simulation] { simulation.stop(); };
  cluster.start(policy);
  simulation.run();
  return cluster.collect();
}

}  // namespace hyperdrive::cluster
