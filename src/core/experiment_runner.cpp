#include "core/experiment_runner.hpp"

namespace hyperdrive::core {

std::shared_ptr<const curve::CurvePredictor> make_predictor(const PredictorOptions& options,
                                                            std::uint64_t seed) {
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
  // Memoize for callers whose requests repeat (StudyManager's deadline
  // arbitration re-predicts its front-runners on an unchanged grid), and for
  // MCMC's warm posterior reuse, which lives in the decorator.
  return std::make_shared<curve::CachingPredictor>(std::move(inner), options.cache);
}

std::shared_ptr<const curve::CurvePredictor> make_default_predictor(std::uint64_t seed) {
  curve::PredictorConfig config;
  config.lsq_samples = 200;
  config.seed = seed;
  return curve::make_lsq_predictor(std::move(config));
}

ExperimentResult run_experiment(const workload::Trace& trace, SchedulingPolicy& policy,
                                const RunnerOptions& options) {
  if (options.substrate == Substrate::TraceReplay) {
    return sim::replay_experiment(trace, policy, options);
  }
  return cluster::run_cluster_experiment(trace, policy, options);
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
