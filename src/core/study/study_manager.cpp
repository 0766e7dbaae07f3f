#include "core/study/study_manager.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "cluster/overhead_model.hpp"
#include "core/experiment_runner.hpp"
#include "core/policy_registry.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "workload/cifar_model.hpp"
#include "workload/lunar_model.hpp"
#include "workload/ptb_lstm_model.hpp"

namespace hyperdrive::core {

namespace {

/// The one workload -> overhead-model choice: CRIU-sized snapshots for the
/// RL workload, framework checkpoints for everything else.
cluster::OverheadModel overheads_for(const std::string& workload) {
  return workload == "lunarlander" ? cluster::lunar_criu_overhead_model()
                                   : cluster::cifar_overhead_model();
}

void add_recovery(RecoveryStats& a, const RecoveryStats& b) {
  a.node_crashes += b.node_crashes;
  a.node_restarts += b.node_restarts;
  a.jobs_requeued += b.jobs_requeued;
  a.epochs_lost += b.epochs_lost;
  a.snapshots_lost += b.snapshots_lost;
  a.snapshot_restore_failures += b.snapshot_restore_failures;
  a.stat_reports_lost += b.stat_reports_lost;
  a.duplicate_stats_ignored += b.duplicate_stats_ignored;
  a.jobs_migrated += b.jobs_migrated;
  a.nodes_quarantined += b.nodes_quarantined;
  a.nodes_reinstated += b.nodes_reinstated;
  a.hung_jobs_detected += b.hung_jobs_detected;
  a.wrong_kills += b.wrong_kills;
}

}  // namespace

ResolvedStudy resolve_study(const StudySpec& spec, bool realize_trace) {
  ResolvedStudy study;
  if (spec.workload == "cifar10") {
    study.model = std::make_shared<workload::CifarWorkloadModel>();
  } else if (spec.workload == "lunarlander") {
    study.model = std::make_shared<workload::LunarWorkloadModel>();
  } else if (spec.workload == "ptb_lstm") {
    study.model = std::make_shared<workload::PtbLstmWorkloadModel>();
  } else {
    throw std::invalid_argument("unknown workload '" + spec.workload +
                                "' (want cifar10|lunarlander|ptb_lstm)");
  }
  const workload::HyperparameterSpace& space = study.model->space();
  // Built only to realize the trace: a grid generator enumerates its whole
  // grid when built, which a name check must not pay for.
  std::function<std::unique_ptr<HyperparameterGenerator>()> make_generator;
  if (spec.generator == "random") {
    make_generator = [&] { return make_random_generator(space, spec.seed); };
  } else if (spec.generator == "grid") {
    make_generator = [&] { return make_grid_generator(space, 3); };
  } else if (spec.generator == "adaptive") {
    make_generator = [&] { return make_adaptive_generator(space, spec.seed); };
  } else if (spec.generator == "tpe") {
    make_generator = [&] { return make_tpe_generator(space, spec.seed); };
  } else {
    throw std::invalid_argument("unknown generator '" + spec.generator +
                                "' (want random|grid|adaptive|tpe)");
  }
  study.overheads = overheads_for(spec.workload);
  study.explore = make_model_explore(study.model);
  // The options are parsed per build: PolicyParams marks keys consumed, so
  // one bag must not be shared by policies built on different threads.
  study.make_policy = [name = spec.policy, params = spec.policy_params,
                       tmax = spec.tmax](std::uint64_t seed) {
    PolicyContext ctx;
    ctx.seed = seed;
    ctx.tmax = tmax;
    return make_registry_policy(name, PolicyParams::parse(params), ctx);
  };
  (void)study.make_policy(spec.seed);
  if (realize_trace) {
    study.trace = trace_from_generator(*study.model, *make_generator(), spec.configs,
                                       spec.seed, /*report_feedback=*/true);
    if (spec.has_target_override()) study.trace.target_performance = spec.target;
  }
  return study;
}

std::string_view to_string(ArbitrationMode mode) noexcept {
  switch (mode) {
    case ArbitrationMode::StaticPartition: return "static";
    case ArbitrationMode::FairShare: return "fair";
    case ArbitrationMode::DeadlineAware: return "deadline";
    case ArbitrationMode::Cost: return "cost";
  }
  return "?";
}

ArbitrationMode arbitration_from_string(const std::string& name) {
  if (name == "static") return ArbitrationMode::StaticPartition;
  if (name == "fair") return ArbitrationMode::FairShare;
  if (name == "deadline") return ArbitrationMode::DeadlineAware;
  if (name == "cost") return ArbitrationMode::Cost;
  throw std::invalid_argument("unknown arbitration mode '" + name +
                              "' (want static|fair|deadline|cost)");
}

struct StudyManager::Tenant {
  StudySpec spec;
  workload::Trace trace;
  /// PBT explore hook; empty when the study was admitted with an explicit
  /// trace (cloning is then unsupported).
  workload::ExploreFn explore;
  std::function<std::unique_ptr<SchedulingPolicy>()> policy_factory;
  std::unique_ptr<SchedulingPolicy> policy;
  std::unique_ptr<cluster::HyperDriveCluster> cluster;
  bool cancelled = false;
  /// DeadlineAware: urgency latches on (and stays on until the study
  /// finishes or its deadline passes) — releasing the boost as soon as the
  /// estimate dips under the deadline makes the lease thrash, and every
  /// oscillation costs suspend/migrate overhead.
  bool urgent_latched = false;

  [[nodiscard]] bool finished() const {
    return cluster != nullptr && cluster->finished();
  }
};

StudyManager::StudyManager(StudyManagerOptions options)
    : options_(options),
      catalog_(options_.catalog.empty()
                   ? cluster::NodeCatalog::uniform(options_.machines)
                   : options_.catalog),
      predictor_(make_predictor(PredictorOptions{}, util::derive_seed(options.seed, 0x57D1))) {
  // A non-empty catalog is authoritative for the pool size (mirrors
  // ClusterOptions::catalog).
  options_.machines = catalog_.total_nodes();
}

StudyManager::~StudyManager() = default;

void StudyManager::add_study(const StudySpec& spec) {
  ResolvedStudy study = resolve_study(spec);
  add_study(spec, std::move(study.trace),
            [make = std::move(study.make_policy), seed = spec.seed] { return make(seed); });
  tenants_.back()->explore = std::move(study.explore);
}

void StudyManager::add_study(
    StudySpec spec, workload::Trace trace,
    std::function<std::unique_ptr<SchedulingPolicy>()> policy_factory) {
  if (ran_) throw std::logic_error("StudyManager::add_study after run()");
  if (spec.name.empty()) throw std::invalid_argument("study has no name");
  if (!policy_factory) throw std::invalid_argument("study policy factory is empty");
  for (const auto& t : tenants_) {
    if (t->spec.name == spec.name) {
      throw std::invalid_argument("duplicate study name '" + spec.name + "'");
    }
  }
  auto tenant = std::make_unique<Tenant>();
  tenant->spec = std::move(spec);
  tenant->trace = std::move(trace);
  tenant->policy_factory = std::move(policy_factory);
  tenants_.push_back(std::move(tenant));
}

std::size_t StudyManager::study_count() const noexcept { return tenants_.size(); }

std::vector<std::size_t> StudyManager::fair_targets() const {
  std::vector<std::size_t> targets(tenants_.size(), 0);
  std::vector<std::size_t> active;
  double total_weight = 0.0;
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    if (tenants_[i]->finished()) continue;
    active.push_back(i);
    total_weight += tenants_[i]->spec.weight;
  }
  if (active.empty()) return targets;

  // Every unfinished study keeps at least one slot (no tenant is starved
  // into silence); the rest splits by weight with largest-remainder rounding
  // (deterministic: stable sort keeps index order on remainder ties).
  std::size_t pool = options_.machines - active.size();
  for (const std::size_t i : active) targets[i] = 1;
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t assigned = 0;
  for (const std::size_t i : active) {
    const double ideal =
        static_cast<double>(pool) * (tenants_[i]->spec.weight / total_weight);
    const auto base = static_cast<std::size_t>(ideal);
    targets[i] += base;
    assigned += base;
    remainders.emplace_back(ideal - static_cast<double>(base), i);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t k = 0; k < pool - assigned; ++k) {
    ++targets[remainders[k].second];
  }
  return targets;
}

util::SimTime StudyManager::estimate_time_to_target(const Tenant& tenant) const {
  const auto& c = *tenant.cluster;
  const double target = c.target_performance();
  const std::size_t max_epochs = c.max_epochs();
  const std::size_t boundary = std::max<std::size_t>(1, c.evaluation_boundary());

  // Rank this study's jobs by their latest observed performance and predict
  // only the few front-runners — the study finishes when its best job does.
  struct Candidate {
    JobId id = 0;
    double last = 0.0;
  };
  std::vector<Candidate> candidates;
  for (const JobId id : c.active_jobs()) {
    const auto& history = c.perf_history(id);
    if (history.size() < 4 || history.size() >= max_epochs) continue;
    candidates.push_back({id, history.back()});
  }
  std::sort(candidates.begin(), candidates.end(), [](const auto& a, const auto& b) {
    if (a.last != b.last) return a.last > b.last;
    return a.id < b.id;
  });
  if (candidates.size() > 5) candidates.resize(5);

  auto best = util::SimTime::infinity();
  for (const Candidate& cand : candidates) {
    const auto& history = c.perf_history(cand.id);
    const util::SimTime epoch_duration = c.normalized_epoch_duration(cand.id);
    if (epoch_duration <= util::SimTime::zero()) continue;
    const std::size_t done = history.size();
    std::vector<double> future;
    for (std::size_t e = (done / boundary + 1) * boundary; e < max_epochs; e += boundary) {
      future.push_back(static_cast<double>(e));
    }
    future.push_back(static_cast<double>(max_epochs));
    const auto prediction =
        predictor_->predict(history, future, static_cast<double>(max_epochs));
    if (prediction.empty()) continue;
    for (std::size_t idx = 0; idx < prediction.epochs().size(); ++idx) {
      if (prediction.prob_reached_by(idx, target) < kDeadlineConfidence) continue;
      const double remaining_epochs = prediction.epochs()[idx] - static_cast<double>(done);
      const auto t = util::SimTime::seconds(remaining_epochs * epoch_duration.to_seconds());
      if (t < best) best = t;
      break;
    }
  }
  return best;
}

void StudyManager::apply_deadline_boost(std::vector<std::size_t>& targets) {
  struct Info {
    std::size_t index = 0;
    bool urgent = false;
    double slack_s = 0.0;
    /// best-so-far performance over the study's own target — how close the
    /// study is to finishing. Donor ordering uses this rather than the
    /// predictor estimate because progress ratios are comparable across
    /// studies while curve-time estimates are not (a job-time estimate says
    /// nothing about how often the study's policy actually runs that job).
    double progress = 0.0;
  };
  const auto now = sim_->now();
  std::vector<Info> infos;
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    Tenant& t = *tenants_[i];
    if (t.finished()) continue;
    Info info{i, false, std::numeric_limits<double>::infinity(), 0.0};
    const double target = t.cluster->target_performance();
    if (target > 0.0) info.progress = t.cluster->best_performance() / target;
    if (t.spec.has_deadline() && now < t.spec.deadline) {
      const double deadline_s = (t.spec.deadline - now).to_seconds();
      const auto estimate = estimate_time_to_target(t);
      // No predictable job yet: assume the deadline is still feasible (the
      // fair share keeps the study warm until its curves say otherwise).
      info.slack_s = estimate == util::SimTime::infinity()
                         ? deadline_s
                         : deadline_s - estimate.to_seconds();
      if (info.slack_s < 0.0) t.urgent_latched = true;
      info.urgent = t.urgent_latched;
    } else {
      // No deadline, or the deadline has already passed: plain fair share
      // (boosting cannot rescue a missed deadline).
      t.urgent_latched = false;
    }
    infos.push_back(info);
  }

  // Serve the most-behind study first (ties: admission order).
  std::vector<Info*> urgent;
  for (Info& info : infos) {
    if (info.urgent) urgent.push_back(&info);
  }
  std::stable_sort(urgent.begin(), urgent.end(),
                   [](const Info* a, const Info* b) { return a->slack_s < b->slack_s; });
  for (Info* u : urgent) {
    for (std::size_t k = 0; k < kDeadlineBoostSlots; ++k) {
      // Donate from the study closest to its own target — its slots flow
      // back to the pool soonest anyway, so slowing it barely moves the
      // run's makespan. Ties go to the most slack, then to the biggest
      // current target so the donation spreads over equivalent donors
      // instead of draining one of them.
      Info* donor = nullptr;
      for (Info& d : infos) {
        if (d.urgent || targets[d.index] <= 1) continue;
        const bool better =
            donor == nullptr || d.progress > donor->progress ||
            (d.progress == donor->progress &&
             (d.slack_s > donor->slack_s ||
              (d.slack_s == donor->slack_s &&
               targets[d.index] > targets[donor->index])));
        if (better) donor = &d;
      }
      if (donor == nullptr) break;
      --targets[donor->index];
      ++targets[u->index];
    }
  }
}

void StudyManager::apply_cost_caps(std::vector<std::size_t>& targets) {
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    Tenant& t = *tenants_[i];
    if (t.cluster == nullptr || t.finished()) continue;
    // Leasing more slots than the study has runnable jobs only pads the
    // bill; the fair floor of one slot keeps even a broke tenant alive.
    std::size_t cap = std::max<std::size_t>(1, t.cluster->active_jobs().size());
    if (t.cluster->current_spend_usd() >= t.spec.budget_usd) cap = 1;
    targets[i] = std::min(targets[i], cap);
  }
}

std::vector<cluster::CapacityView> StudyManager::split_by_class(
    const std::vector<std::size_t>& totals) const {
  std::vector<cluster::CapacityView> views(tenants_.size());
  std::vector<std::size_t> remaining(catalog_.classes(), 0);
  for (cluster::NodeClassId c = 0; c < catalog_.classes(); ++c) {
    remaining[c] = catalog_.at(c).count;
  }
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    cluster::CapacityView& view = views[i];
    // Full catalog width up front so views compare class-for-class against
    // tenant lease targets.
    view.set(catalog_.classes() - 1, 0);
    std::size_t need = totals[i];
    const auto take = [&](cluster::NodeClassId c) {
      const std::size_t got = std::min(need, remaining[c]);
      view.set(c, view.of(c) + got);
      remaining[c] -= got;
      need -= got;
    };
    if (!tenants_[i]->spec.node_class.empty()) {
      if (const auto preferred = catalog_.find(tenants_[i]->spec.node_class)) {
        take(*preferred);
      }
    }
    for (cluster::NodeClassId c = 0; need > 0 && c < catalog_.classes(); ++c) take(c);
  }
  return views;
}

void StudyManager::reconcile_autoscaler(const std::vector<cluster::CapacityView>& views) {
  if (autoscaler_ == nullptr) return;
  cluster::CapacityView demand;
  for (cluster::NodeClassId c = 0; c < catalog_.classes(); ++c) {
    std::size_t want = 0;
    for (const cluster::CapacityView& v : views) want += v.of(c);
    demand.set(c, want);
  }
  for (const cluster::ScaleAction& action : autoscaler_->reconcile(demand, sim_->now())) {
    const bool acquire = action.kind == cluster::ScaleAction::Kind::Acquire;
    obs::TraceEvent event(acquire ? obs::EventKind::NodeAcquired
                                  : obs::EventKind::NodeReleased);
    event.time = sim_->now();
    event.detail = "class=" + catalog_.at(action.node_class).name +
                   " count=" + std::to_string(action.count);
    options_.obs.emit(event);
    if (options_.obs.metrics != nullptr) {
      options_.obs.metrics
          ->counter(acquire ? "elastic.nodes_acquired" : "elastic.nodes_released")
          .add(action.count);
    }
  }
  if (options_.obs.metrics != nullptr) {
    options_.obs.metrics->gauge("elastic.spend_usd").set(autoscaler_->spend_usd());
  }
}

void StudyManager::rebalance(bool count_tick) {
  auto targets = fair_targets();
  if (options_.arbitration == ArbitrationMode::DeadlineAware) {
    apply_deadline_boost(targets);
    // Freeze the split between topology changes: while the same studies are
    // finished/urgent as at the last recompute, reuse that split verbatim.
    // The progress signal that orders donors creeps every tick, and letting
    // it re-pick the donor churns the leases (each flip costs a
    // suspend/migrate round trip).
    std::vector<char> key(tenants_.size(), 0);
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      const Tenant& t = *tenants_[i];
      key[i] = t.finished() ? 1 : (t.urgent_latched ? 2 : 0);
    }
    if (key == boost_key_ && !boost_targets_.empty()) {
      targets = boost_targets_;
    } else {
      boost_key_ = std::move(key);
      boost_targets_ = targets;
    }
  } else if (options_.arbitration == ArbitrationMode::Cost) {
    // Deadline urgency still wins slots; the caps then shave everything the
    // studies cannot actually run, and the autoscaler releases the surplus.
    // No freeze cache: the runnable-job counts the caps read move every tick.
    apply_deadline_boost(targets);
    apply_cost_caps(targets);
  }
  const auto views = split_by_class(targets);
  bool changed = false;
  // Shrink first so reclaimed slots are already draining toward the pool
  // when the growing tenants' targets rise; pump() hands them over as they
  // actually park.
  for (std::size_t pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      Tenant& t = *tenants_[i];
      if (t.cluster == nullptr) continue;
      const bool shrink = views[i].total() < t.cluster->lease_target().total();
      if ((pass == 0) != shrink) continue;
      if (views[i] != t.cluster->lease_target()) changed = true;
      t.cluster->set_lease_target(views[i]);
    }
  }
  if (changed && count_tick) ++rebalances_;
  reconcile_autoscaler(views);
  pump();
}

void StudyManager::pump() {
  for (cluster::NodeClassId c = 0; c < catalog_.classes(); ++c) {
    std::size_t held = 0;
    for (const auto& t : tenants_) {
      if (t->cluster != nullptr) held += t->cluster->held_capacity().of(c);
    }
    const std::size_t acquired =
        autoscaler_ != nullptr ? autoscaler_->acquired().of(c) : catalog_.at(c).count;
    std::size_t free = acquired > held ? acquired - held : 0;
    bool progress = true;
    while (free > 0 && progress) {
      progress = false;
      for (auto& t : tenants_) {
        if (free == 0) break;
        if (t->cluster == nullptr || t->finished()) continue;
        if (t->cluster->grant_one(c)) {
          --free;
          progress = true;
        }
      }
    }
  }
}

void StudyManager::on_study_finished(std::size_t index) {
  (void)index;
  if (options_.arbitration != ArbitrationMode::StaticPartition) {
    // Redistribute the drained capacity among the survivors right away —
    // exactly the handoff StaticPartition forgoes.
    rebalance(false);
  }
  if (all_finished()) {
    if (arbitration_armed_) {
      sim_->cancel(arbitration_event_);
      arbitration_armed_ = false;
    }
    if (checkpoint_armed_) {
      sim_->cancel(checkpoint_event_);
      checkpoint_armed_ = false;
    }
    sim_->stop();
  }
}

void StudyManager::arbitration_tick() {
  arbitration_armed_ = false;
  if (all_finished()) return;
  rebalance(/*count_tick=*/true);
  arbitration_event_ = sim_->schedule_after(options_.arbitration_interval,
                                            [this] { arbitration_tick(); },
                                            /*priority=*/20);
  arbitration_armed_ = true;
}

// Priority 30: after cancel-at and the arbitration tick of the same instant,
// so a checkpoint always sees the tick's final state. The CheckpointWritten
// event rides the deterministic timeline: it fires at the same tick in every
// run with the same cadence, interrupted or not, so resumed traces stay
// byte-identical.
void StudyManager::checkpoint_tick() {
  checkpoint_armed_ = false;
  if (all_finished()) return;
  ManagerCheckpoint cp;
  cp.sequence = ++checkpoint_seq_;
  cp.tick = sim_->now();
  cp.rebalances = rebalances_;
  cp.state = capture();
  obs::TraceEvent event(obs::EventKind::CheckpointWritten);
  event.time = sim_->now();
  event.detail = "seq=" + std::to_string(cp.sequence) +
                 " bytes=" + std::to_string(cp.state.size());
  options_.obs.emit(event);
  if (options_.on_checkpoint && !options_.on_checkpoint(std::move(cp))) {
    exit_ = ManagerExit::Halted;
    sim_->stop();
    return;
  }
  checkpoint_event_ = sim_->schedule_after(options_.checkpoint_every,
                                           [this] { checkpoint_tick(); },
                                           /*priority=*/30);
  checkpoint_armed_ = true;
}

bool StudyManager::all_finished() const {
  return std::all_of(tenants_.begin(), tenants_.end(),
                     [](const auto& t) { return t->finished(); });
}

MultiStudyResult StudyManager::run() {
  if (ran_) throw std::logic_error("StudyManager::run is single-use");
  if (tenants_.empty()) throw std::invalid_argument("no studies admitted");
  if (options_.machines < tenants_.size()) {
    throw std::invalid_argument("machine pool smaller than the number of studies");
  }
  ran_ = true;

  sim_ = std::make_unique<sim::Simulation>();
  // The whole fleet is acquired up front (the admission split hands it out);
  // cost mode's arbitration ticks release what the studies cannot use.
  cluster::Autoscaler::Options scaler_options;
  scaler_options.catalog = catalog_;
  scaler_options.budget_usd = options_.budget_usd;
  autoscaler_ =
      std::make_unique<cluster::Autoscaler>(scaler_options, catalog_.full());
  const auto views = split_by_class(fair_targets());
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    Tenant& t = *tenants_[i];
    cluster::ClusterOptions co;
    co.machines = options_.machines;
    co.catalog = catalog_;
    co.initial_lease = views[i];
    co.max_experiment_time = t.spec.tmax;
    co.stop_on_target = true;
    co.seed = t.spec.seed;
    co.epoch_jitter_sigma = options_.epoch_jitter_sigma;
    co.overheads = overheads_for(t.spec.workload);
    co.health = options_.health;
    // Tenants share the node-level fault plan; coordinator crashes in it are
    // the manager's business (scheduled below) and are ignored by clusters.
    co.fault_plan = options_.fault_plan;
    // A lone study emits unlabelled events — byte-identical to the
    // single-tenant cluster's own stream.
    co.study_label = tenants_.size() > 1 ? t.spec.name : "";
    // One shared sink/registry; each tenant stamps its study label onto the
    // events it emits so the merged stream stays attributable.
    co.obs = options_.obs;
    co.explore = t.explore;
    t.cluster = std::make_unique<cluster::HyperDriveCluster>(t.trace, co, *sim_);
    t.cluster->on_slot_released = [this] { pump(); };
    t.cluster->on_finished = [this, i] { on_study_finished(i); };
  }
  for (auto& t : tenants_) {
    t->policy = t->policy_factory();
    if (!t->policy) throw std::runtime_error("study policy factory returned null");
    t->cluster->start(*t->policy);
  }
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const Tenant& t = *tenants_[i];
    if (t.spec.cancel_at == util::SimTime::infinity()) continue;
    sim_->schedule_at(
        t.spec.cancel_at,
        [this, i] {
          Tenant& tt = *tenants_[i];
          if (tt.finished()) return;
          tt.cancelled = true;
          tt.cluster->cancel();
        },
        /*priority=*/10);
  }
  // Cost mode ticks even for a lone study: the caps that release idle
  // capacity are worth running with nobody to arbitrate against.
  if ((tenants_.size() > 1 || options_.arbitration == ArbitrationMode::Cost) &&
      options_.arbitration != ArbitrationMode::StaticPartition) {
    arbitration_event_ = sim_->schedule_after(options_.arbitration_interval,
                                              [this] { arbitration_tick(); },
                                              /*priority=*/20);
    arbitration_armed_ = true;
  }

  if (options_.checkpoint_every > util::SimTime::zero()) {
    checkpoint_event_ = sim_->schedule_after(options_.checkpoint_every,
                                             [this] { checkpoint_tick(); },
                                             /*priority=*/30);
    checkpoint_armed_ = true;
  }

  // Coordinator crashes (priority 40: a same-tick checkpoint lands first, so
  // "crash right at the checkpoint" still has that checkpoint to resume
  // from). Crashes already taken by earlier incarnations are a sorted prefix;
  // the crash_floor guard additionally drops anything a tampered checkpoint
  // would place in the replayed past.
  if (options_.fault_plan.any_coordinator()) {
    auto crashes = options_.fault_plan.coordinator_crashes;
    std::stable_sort(crashes.begin(), crashes.end(),
                     [](const auto& a, const auto& b) { return a.at < b.at; });
    for (std::size_t i = options_.coordinator_crashes_to_skip; i < crashes.size(); ++i) {
      if (crashes[i].at < options_.crash_floor) continue;
      sim_->schedule_at(
          crashes[i].at,
          [this] {
            if (all_finished()) return;
            exit_ = ManagerExit::Crashed;
            sim_->stop();
          },
          /*priority=*/40);
    }
  }

  sim_->run();

  if (exit_ != ManagerExit::Completed) {
    // Crashed (CoordinatorCrashEvent) or halted (checkpoint sink veto): this
    // incarnation is dead. Do not collect the tenants — collect() finalizes
    // results and publishes cluster metrics into the (shared) registry, and a
    // doomed incarnation must leave no trace there. The recovery runtime
    // discards this result and replays in a fresh manager.
    MultiStudyResult dead;
    dead.rebalances = rebalances_;
    return dead;
  }

  MultiStudyResult result;
  result.rebalances = rebalances_;
  for (auto& t : tenants_) {
    StudyOutcome outcome;
    outcome.spec = t->spec;
    outcome.result = t->cluster->collect();
    outcome.cancelled = t->cancelled;
    outcome.deadline_met = t->spec.has_deadline() && outcome.result.reached_target &&
                           outcome.result.time_to_target <= t->spec.deadline;
    if (outcome.result.total_time > result.total_time) {
      result.total_time = outcome.result.total_time;
    }
    result.studies.push_back(std::move(outcome));
  }
  // Close the bill at the makespan: capacity still acquired when the last
  // study finishes is billed to that instant.
  autoscaler_->advance(result.total_time);
  result.spend_usd = autoscaler_->spend_usd();
  if (options_.obs.metrics != nullptr) {
    options_.obs.metrics->gauge("elastic.spend_usd").set(result.spend_usd);
  }
  return result;
}

std::vector<std::uint8_t> StudyManager::capture() const {
  util::ByteWriter w;
  w.f64(sim_->now().to_seconds());
  w.u64(rebalances_);
  w.u64(checkpoint_seq_);
  w.u8(arbitration_armed_ ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(boost_key_.size()));
  for (const char k : boost_key_) w.u8(static_cast<std::uint8_t>(k));
  w.u32(static_cast<std::uint32_t>(boost_targets_.size()));
  for (const std::size_t t : boost_targets_) w.u64(t);
  // Zero count and digest words where the removed string event log's were,
  // so HDCK v2 frames keep their layout and bytes.
  w.u64(0);
  w.u64(0);
  w.u32(static_cast<std::uint32_t>(tenants_.size()));
  for (const auto& t : tenants_) {
    w.str(t->spec.name);
    w.u8(static_cast<std::uint8_t>((t->cancelled ? 1 : 0) | (t->urgent_latched ? 2 : 0)));
    t->cluster->encode_state(w);
  }
  // Elastic capacity state (DESIGN.md §15): a resumed replay must re-acquire
  // and re-bill identically.
  if (autoscaler_ != nullptr) {
    const cluster::CapacityView& acquired = autoscaler_->acquired();
    w.u32(static_cast<std::uint32_t>(acquired.classes()));
    for (cluster::NodeClassId c = 0; c < acquired.classes(); ++c) {
      w.u64(acquired.of(c));
    }
    w.f64(autoscaler_->spend_usd());
  }
  return std::move(w.bytes());
}

ManagerCheckpoint StudyManager::capture_checkpoint() {
  if (sim_ == nullptr) throw std::logic_error("capture_checkpoint before run()");
  ManagerCheckpoint cp;
  cp.sequence = ++checkpoint_seq_;
  cp.tick = sim_->now();
  cp.rebalances = rebalances_;
  cp.state = capture();
  return cp;
}

ExperimentResult MultiStudyResult::aggregate() const {
  ExperimentResult agg;
  agg.policy_name = "multi-study";
  agg.total_time = total_time;
  bool all_reached = !studies.empty();
  auto makespan = util::SimTime::zero();
  for (const StudyOutcome& s : studies) {
    const ExperimentResult& r = s.result;
    if (r.reached_target) {
      // Makespan over studies: the last study to hit its target.
      makespan = std::max(makespan, r.time_to_target);
    } else {
      all_reached = false;
    }
    agg.best_perf = std::max(agg.best_perf, r.best_perf);
    agg.total_machine_time += r.total_machine_time;
    agg.suspends += r.suspends;
    agg.terminations += r.terminations;
    agg.jobs_started += r.jobs_started;
    agg.retransmissions += r.retransmissions;
    agg.slot_seconds += r.slot_seconds;
    agg.lease_grants += r.lease_grants;
    agg.lease_reclaims += r.lease_reclaims;
    agg.spend_usd += r.spend_usd;
    agg.job_stats.insert(agg.job_stats.end(), r.job_stats.begin(), r.job_stats.end());
    agg.suspend_samples.insert(agg.suspend_samples.end(), r.suspend_samples.begin(),
                               r.suspend_samples.end());
    add_recovery(agg.recovery, r.recovery);
  }
  agg.reached_target = all_reached;
  agg.time_to_target = all_reached ? makespan : util::SimTime::infinity();
  return agg;
}

void MultiStudyResult::save_csv(std::ostream& out) const {
  const std::vector<std::string> header = {
      "study",         "workload",       "policy",        "generator",
      "weight",        "seed",           "reached_target", "time_to_target_min",
      "total_time_min", "best_perf",     "deadline_min",  "deadline_met",
      "cancelled",     "slot_hours",     "lease_grants",  "lease_reclaims",
      "jobs_started",  "suspends",       "terminations",  "jobs_migrated",
      "spend_usd"};
  util::CsvWriter writer(out, header);
  for (const StudyOutcome& s : studies) {
    const ExperimentResult& r = s.result;
    std::vector<std::string> fields;
    fields.reserve(header.size());
    fields.push_back(s.spec.name);
    fields.push_back(s.spec.workload);
    fields.push_back(s.spec.policy);
    fields.push_back(s.spec.generator);
    fields.push_back(util::csv_number(s.spec.weight));
    fields.push_back(util::csv_number(static_cast<std::uint64_t>(s.spec.seed)));
    fields.push_back(r.reached_target ? "1" : "0");
    fields.push_back(util::csv_number(r.time_to_target.to_minutes()));
    fields.push_back(util::csv_number(r.total_time.to_minutes()));
    fields.push_back(util::csv_number(r.best_perf));
    fields.push_back(util::csv_number(s.spec.deadline.to_minutes()));
    fields.push_back(s.deadline_met ? "1" : "0");
    fields.push_back(s.cancelled ? "1" : "0");
    fields.push_back(util::csv_number(r.slot_seconds.to_hours()));
    fields.push_back(util::csv_number(static_cast<std::uint64_t>(r.lease_grants)));
    fields.push_back(util::csv_number(static_cast<std::uint64_t>(r.lease_reclaims)));
    fields.push_back(util::csv_number(static_cast<std::uint64_t>(r.jobs_started)));
    fields.push_back(util::csv_number(static_cast<std::uint64_t>(r.suspends)));
    fields.push_back(util::csv_number(static_cast<std::uint64_t>(r.terminations)));
    fields.push_back(util::csv_number(static_cast<std::uint64_t>(r.recovery.jobs_migrated)));
    fields.push_back(util::csv_number(r.spend_usd));
    writer.write_row(fields);
  }
}

}  // namespace hyperdrive::core
