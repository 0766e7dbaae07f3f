#include "core/experiment_runner.hpp"

#include <algorithm>

namespace hyperdrive::core {

std::shared_ptr<const curve::CurvePredictor> make_predictor(const PredictorOptions& options,
                                                            std::uint64_t seed,
                                                            obs::Scope scope) {
  curve::PredictorConfig config = options.config;
  config.seed = seed;
  std::shared_ptr<const curve::CurvePredictor> inner;
  switch (options.kind) {
    case PredictorOptions::Kind::Lsq:
      inner = curve::make_lsq_predictor(std::move(config));
      break;
    case PredictorOptions::Kind::Mcmc:
      inner = curve::make_mcmc_predictor(std::move(config));
      break;
    case PredictorOptions::Kind::LastValue:
      inner = curve::make_last_value_predictor(std::move(config));
      break;
  }
  // Memoize: policies re-consult the posterior for the same (history,
  // horizon) within a boundary round (§5.2 node-agent-side caching).
  return curve::with_cache_options(std::move(inner), options.cache, std::move(scope));
}

std::shared_ptr<const curve::CurvePredictor> make_default_predictor(std::uint64_t seed,
                                                                    obs::Scope scope) {
  PredictorOptions options;
  options.config.lsq_samples = 200;
  return make_predictor(options, seed, std::move(scope));
}

ExperimentResult run_experiment(const workload::Trace& trace, SchedulingPolicy& policy,
                                const RunnerOptions& options) {
  if (options.substrate == Substrate::TraceReplay) {
    return sim::replay_experiment(trace, policy, options);
  }
  return cluster::run_cluster_experiment(trace, policy, options);
}

AdaptiveSearchResult run_adaptive_search(
    const workload::WorkloadModel& model, HyperparameterGenerator& generator,
    const std::function<std::unique_ptr<SchedulingPolicy>()>& policy_factory,
    const RunnerOptions& options, std::size_t rounds, std::size_t configs_per_round,
    std::uint64_t experiment_seed) {
  AdaptiveSearchResult out;
  for (std::size_t round = 0; round < rounds; ++round) {
    const auto trace = trace_from_generator(model, generator, configs_per_round,
                                            experiment_seed ^ round,
                                            /*report_feedback=*/false);
    const auto policy = policy_factory();
    auto result = run_experiment(trace, *policy, options);

    // Close the loop (§4.2 ➁): report what the scheduler actually observed.
    // Jobs killed early report their best-so-far — exactly the signal the
    // paper's reportFinalPerformance carries.
    for (const auto& js : result.job_stats) {
      if (js.epochs_completed > 0) {
        generator.report_final_performance(js.job_id, js.best_perf);
      }
    }
    out.best_perf = std::max(out.best_perf, result.best_perf);
    out.total_time += result.total_time;
    out.reached_target = out.reached_target || result.reached_target;
    out.rounds.push_back(std::move(result));
    if (out.reached_target) break;
  }
  return out;
}

workload::Trace trace_from_generator(const workload::WorkloadModel& model,
                                     HyperparameterGenerator& generator,
                                     std::size_t num_configs,
                                     std::uint64_t experiment_seed, bool report_feedback) {
  workload::Trace trace;
  trace.workload_name = std::string(model.name());
  trace.target_performance = model.target_performance();
  trace.kill_threshold = model.kill_threshold();
  trace.evaluation_boundary = model.evaluation_boundary();
  trace.max_epochs = model.max_epochs();

  trace.jobs.reserve(num_configs);
  for (std::size_t i = 0; i < num_configs; ++i) {
    auto [job_id, config] = generator.create_job();
    workload::TraceJob job;
    job.job_id = job_id;
    job.config = std::move(config);
    job.curve = model.realize(job.config, experiment_seed);
    if (report_feedback) {
      generator.report_final_performance(job_id, job.curve.final_perf());
    }
    trace.jobs.push_back(std::move(job));
  }
  return trace;
}

}  // namespace hyperdrive::core
