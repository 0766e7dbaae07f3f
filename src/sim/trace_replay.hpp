// TraceReplaySimulator — the paper's trace-driven simulator (§7.1).
//
// Replays a frozen workload::Trace under a pluggable SchedulingPolicy with
// idealized resource-management logic: epoch durations are exactly the
// trace's recorded averages and suspend/resume, messaging and prediction
// overheads are all zero. This is deliberately simpler than
// cluster::HyperDriveCluster; the difference between the two on the same
// trace is the simulator-validation error of Fig. 12a (the paper reports a
// max error of 13% against its live system). The job table, the PBT
// continuation mint, the target test and the per-job result assembly are
// the ones the cluster uses (sim::JobManager, sim::reaches_target), so
// that gap comes from the cluster's fidelity knobs alone.
#pragma once

#include "core/experiment_result.hpp"
#include "core/sap.hpp"
#include "sim/job_manager.hpp"
#include "sim/simulation.hpp"
#include "workload/trace.hpp"

namespace hyperdrive::sim {

/// The options both substrates read. cluster::ClusterOptions extends this
/// struct with the cluster-only fidelity knobs, and core::RunnerOptions
/// extends that, so each field is declared exactly once.
struct ReplayOptions {
  std::size_t machines = 4;
  /// Experiment cutoff (the user's Tmax); infinity disables it.
  util::SimTime max_experiment_time = util::SimTime::infinity();
  /// Stop as soon as any job reports perf >= target (the paper's
  /// time-to-target objective). When false the experiment runs all jobs to
  /// completion/termination (used to study best-within-budget).
  bool stop_on_target = true;
  /// Model-owner-defined global termination criterion (§9); when set it
  /// replaces the perf >= target check (stop_on_target still gates it).
  core::GlobalStopCriterion stop_criterion;
  /// Exploit/explore continuation hook (PBT; DESIGN.md §13). When set, the
  /// substrate supports SchedulerOps::clone_job: the target job adopts the
  /// donor's observed prefix and trains on against the continuation curve
  /// this hook returns. The cluster also mints a fresh snapshot at the
  /// donor's epoch and resumes the target from it through the normal
  /// restore path. Unset = cloning unsupported (the default).
  workload::ExploreFn explore;
};

/// The experiment-level target monitor both substrates apply to every
/// delivered stat (the paper's time-to-target objective): the options'
/// stop_criterion when set, else perf >= `target`. Folds the stat into
/// result.best_perf; when the run stops on target and the stat meets the
/// test, records the win in `result` and returns true, and the substrate
/// then finishes the experiment.
[[nodiscard]] bool reaches_target(const ReplayOptions& options, double target,
                                  const core::JobEvent& event,
                                  core::ExperimentResult& result);

class TraceReplaySimulator final : public core::SchedulerOps {
 public:
  TraceReplaySimulator(const workload::Trace& trace, ReplayOptions options);

  /// Run the experiment under `policy` and collect the result. The
  /// simulator object is single-use.
  [[nodiscard]] core::ExperimentResult run(core::SchedulingPolicy& policy);

  // --- SchedulerOps -------------------------------------------------------
  [[nodiscard]] std::optional<core::JobId> get_idle_job() override;
  bool start_job(core::JobId job) override;
  void label_job(core::JobId job, double priority) override;
  [[nodiscard]] std::size_t total_machines() const override { return options_.machines; }
  [[nodiscard]] std::size_t idle_machines() const override { return idle_machines_; }
  [[nodiscard]] util::SimTime now() const override { return simulation_.now(); }
  [[nodiscard]] core::JobStatus job_status(core::JobId job) const override;
  [[nodiscard]] std::vector<core::JobId> active_jobs() const override;
  [[nodiscard]] const std::vector<double>& perf_history(core::JobId job) const override;
  [[nodiscard]] util::SimTime avg_epoch_duration(core::JobId job) const override;
  [[nodiscard]] std::size_t epochs_done(core::JobId job) const override;
  // The gray-failure hooks keep SchedulerOps' defaults: the idealized
  // simulator models the paper's testbed of homogeneous, healthy nodes, so
  // every host runs at nominal speed.
  // Weight migration (PBT; DESIGN.md §13): available iff an explore hook is
  // configured. The clone is instantaneous here — the idealized simulator
  // charges no snapshot-transfer overhead, matching its zero-cost
  // suspend/resume model.
  [[nodiscard]] bool supports_clone() const override;
  bool clone_job(core::JobId job, core::JobId donor, std::uint64_t stream) override;
  [[nodiscard]] std::size_t max_epochs() const override { return trace_.max_epochs; }
  [[nodiscard]] double target_performance() const override {
    return trace_.target_performance;
  }
  [[nodiscard]] double kill_threshold() const override { return trace_.kill_threshold; }
  [[nodiscard]] std::size_t evaluation_boundary() const override {
    return trace_.evaluation_boundary;
  }

 private:
  void complete_epoch(core::JobId job);
  void release_machine_and_allocate();
  void finish_experiment();

  const workload::Trace& trace_;
  ReplayOptions options_;
  Simulation simulation_;
  core::SchedulingPolicy* policy_ = nullptr;
  JobManager<> jobs_;
  std::size_t idle_machines_ = 0;
  core::ExperimentResult result_;
  bool done_ = false;
};

/// Convenience wrapper: build, run, return.
[[nodiscard]] core::ExperimentResult replay_experiment(const workload::Trace& trace,
                                                       core::SchedulingPolicy& policy,
                                                       const ReplayOptions& options);

}  // namespace hyperdrive::sim
