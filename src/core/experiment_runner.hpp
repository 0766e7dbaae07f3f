// Experiment Runner (§4.2 ➀): the client-side entry point. Specifies the
// SAP (with its parameters), the hyperparameter-generation technique, the
// workload, and the number of machines, then runs the experiment on one of
// the two substrates and returns the collected result.
#pragma once

#include <functional>
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

/// Predictor wiring in one place: which inner predictor to build, its
/// configuration, and the caching/warm-start decorator options. The seed is
/// passed separately (per experiment) and overrides `config.seed`.
struct PredictorOptions {
  enum class Kind { Lsq, Mcmc, LastValue };
  Kind kind = Kind::Lsq;
  curve::PredictorConfig config;
  /// Decorator options. warm_start (now on by default, gated by the 30-seed
  /// decision-invariance property test) only takes effect for Kind::Mcmc —
  /// the only warm-startable predictor; for Lsq/LastValue it silently
  /// degrades to a plain cache. See DESIGN.md §11 for the determinism
  /// contract and the knife-edge rotation caveat.
  curve::CachingOptions cache{/*capacity=*/512};
};

/// Build a cached predictor per `options`.
[[nodiscard]] std::shared_ptr<const curve::CurvePredictor> make_predictor(
    const PredictorOptions& options, std::uint64_t seed);

/// The fast LSQ-bootstrap predictor configuration used by the simulation
/// benches (the full-MCMC predictor is available via curve::make_mcmc_predictor
/// and is exercised by the predictor micro-bench, §5.2). Equivalent to
/// make_predictor with default PredictorOptions.
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

/// Multi-round adaptive search: the full Fig. 5 feedback loop. Each round
/// draws a batch from the generator, runs it under the policy, and reports
/// every explored job's observed best performance back through
/// reportFinalPerformance so adaptive generators (TPE, perturbation) focus
/// the next round. Rounds stop early once the target is reached.
struct AdaptiveSearchResult {
  std::vector<ExperimentResult> rounds;
  double best_perf = 0.0;
  bool reached_target = false;
  /// Wall-clock summed across rounds (rounds run back-to-back).
  util::SimTime total_time = util::SimTime::zero();
};

/// `policy_factory` runs once per round: policies are stateful, so every
/// round gets a fresh instance.
[[nodiscard]] AdaptiveSearchResult run_adaptive_search(
    const workload::WorkloadModel& model, HyperparameterGenerator& generator,
    const std::function<std::unique_ptr<SchedulingPolicy>()>& policy_factory,
    const RunnerOptions& options, std::size_t rounds, std::size_t configs_per_round,
    std::uint64_t experiment_seed);

}  // namespace hyperdrive::core
