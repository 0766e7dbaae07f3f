// Experiment Runner (§4.2 ➀): the client-side entry point. Specifies the
// SAP (with its parameters), the hyperparameter-generation technique, the
// workload, and the number of machines, then runs the experiment on one of
// the two substrates and returns the collected result.
#pragma once

#include <memory>
#include <string>

#include "cluster/cluster.hpp"
#include "core/experiment_result.hpp"
#include "core/generators/hyperparameter_generator.hpp"
#include "curve/caching_predictor.hpp"
#include "curve/predictor.hpp"
#include "sim/trace_replay.hpp"
#include "workload/trace.hpp"

namespace hyperdrive::core {

/// A cached predictor's wiring: which inner predictor to build, its
/// configuration, and the CachingPredictor options. The seed is passed
/// separately (per experiment) and overrides `config.seed`.
struct PredictorOptions {
  enum class Kind { Lsq, Mcmc, LastValue };
  Kind kind = Kind::Lsq;
  curve::PredictorConfig config;
  /// Decorator options: an exact LRU of 512 posteriors, plus warm posterior
  /// reuse (on by default), which only Kind::Mcmc engages; for Lsq and
  /// LastValue the decorator is a plain cache. See DESIGN.md §11.
  curve::CachingOptions cache{/*capacity=*/512};
};

/// Build `options`' inner predictor behind a CachingPredictor. Only callers
/// whose requests repeat gain from the cache (DESIGN.md §11); StudyManager's
/// deadline arbitration is the one in the program.
[[nodiscard]] std::shared_ptr<const curve::CurvePredictor> make_predictor(
    const PredictorOptions& options, std::uint64_t seed);

/// The predictor every POP and EarlyTerm policy schedules with: the bare
/// LSQ bootstrap (curve::make_lsq_predictor, 200 samples, `seed`), with no
/// cache. A policy predicts once per job per evaluation boundary, so no
/// request repeats and a cache would only retain posteriors.
[[nodiscard]] std::shared_ptr<const curve::CurvePredictor> make_default_predictor(
    std::uint64_t seed);

/// Which substrate executes the experiment.
enum class Substrate {
  TraceReplay,  ///< idealized simulator of §7.1 (no overheads)
  Cluster,      ///< high-fidelity cluster with overhead models (§5/§6)
};

/// Runner options: every substrate option, declared once in
/// cluster::ClusterOptions (and its sim::ReplayOptions base), plus the
/// substrate choice. run_experiment hands the object to the chosen substrate
/// as is; the trace-replay simulator reads only its ReplayOptions part.
struct RunnerOptions : cluster::ClusterOptions {
  /// The runner's Tmax default is 48 h; the substrates default to none.
  RunnerOptions() { max_experiment_time = util::SimTime::hours(48); }

  Substrate substrate = Substrate::TraceReplay;
};

/// Run one experiment of `policy` over `trace`. Policies are stateful, so
/// the instance must be fresh per experiment (make_standard_policy /
/// make_registry_policy build one by name).
[[nodiscard]] ExperimentResult run_experiment(const workload::Trace& trace,
                                              SchedulingPolicy& policy,
                                              const RunnerOptions& options);

/// Build a trace by drawing `num_configs` jobs from a Hyperparameter
/// Generator and realizing them against the workload model — the ➀→➁→➄ path
/// of Fig. 5. Final performances are reported back to the generator after
/// realization so adaptive generators learn across rounds.
[[nodiscard]] workload::Trace trace_from_generator(const workload::WorkloadModel& model,
                                                   HyperparameterGenerator& generator,
                                                   std::size_t num_configs,
                                                   std::uint64_t experiment_seed,
                                                   bool report_feedback = false);

}  // namespace hyperdrive::core
