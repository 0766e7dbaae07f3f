// Writing your own Scheduling Algorithm Policy (§4.2's design goal: "support
// and enable reuse of existing and future search and scheduling algorithms").
//
// This example implements Successive Halving — a budget-doubling elimination
// scheme in the Hyperband family [21] — purely against the public SAP
// surface: the three up-calls plus SchedulerOps. Nothing inside the
// framework changes; the same policy object runs on either execution
// substrate. It also plugs in a custom Hyperparameter Generator (the
// adaptive one) to show the ➀→➁ path of Fig. 5.
#include <cstdio>
#include <map>

#include "core/experiment_runner.hpp"
#include "core/policies/default_policy.hpp"
#include "core/policy_registry.hpp"
#include "workload/cifar_model.hpp"

using namespace hyperdrive;

namespace {

/// Successive Halving as a SAP: rungs at epochs r, 2r, 4r, ...; at each rung
/// a job survives only if its current performance is in the top `1/eta`
/// fraction of performances recorded at that rung so far.
class SuccessiveHalvingPolicy final : public core::DefaultPolicy {
 public:
  SuccessiveHalvingPolicy(std::size_t base_rung, double eta)
      : base_rung_(base_rung), eta_(eta) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "successive_halving";
  }

  core::JobDecision on_iteration_finish(core::SchedulerOps& ops,
                                        const core::JobEvent& event) override {
    // Is this epoch a rung (r, r*eta, r*eta^2, ...)?
    std::size_t rung = base_rung_;
    while (rung < event.epoch) {
      rung = static_cast<std::size_t>(static_cast<double>(rung) * eta_);
    }
    if (rung != event.epoch) return core::JobDecision::Continue;

    auto& scores = rung_scores_[rung];
    scores.push_back(event.perf);
    // Keep the job iff it is in the top 1/eta of this rung's scores so far.
    std::size_t better = 0;
    for (const double s : scores) {
      if (s > event.perf) ++better;
    }
    const double rank = static_cast<double>(better) / static_cast<double>(scores.size());
    if (scores.size() >= 3 && rank > 1.0 / eta_) return core::JobDecision::Terminate;
    (void)ops;
    return core::JobDecision::Continue;
  }

 private:
  std::size_t base_rung_;
  double eta_;
  std::map<std::size_t, std::vector<double>> rung_scores_;
};

}  // namespace

int main() {
  workload::CifarWorkloadModel model;

  // An adaptive Hyperparameter Generator that exploits reported results.
  const auto generator =
      core::make_adaptive_generator(model.space(), /*seed=*/11, /*warmup=*/20,
                                    /*exploit_prob=*/0.6);
  const auto trace = core::trace_from_generator(model, *generator, 100,
                                                /*experiment_seed=*/2,
                                                /*report_feedback=*/true);

  SuccessiveHalvingPolicy halving(/*base_rung=*/5, /*eta=*/2.0);

  sim::ReplayOptions options;
  options.machines = 4;
  options.max_experiment_time = util::SimTime::hours(48);
  const auto result = sim::replay_experiment(trace, halving, options);

  std::printf("custom policy '%s' on %zu adaptive-HG configurations:\n",
              std::string(halving.name()).c_str(), trace.jobs.size());
  if (result.reached_target) {
    std::printf("  reached %.0f%% accuracy in %s\n", 100.0 * trace.target_performance,
                util::format_duration(result.time_to_target).c_str());
  } else {
    std::printf("  best accuracy %.3f (target %.2f not reached)\n", result.best_perf,
                trace.target_performance);
  }
  std::printf("  jobs terminated at rungs: %zu of %zu started\n", result.terminations,
              result.jobs_started);

  // Same trace under POP, for reference.
  const auto pop_policy = core::make_standard_policy("pop", /*seed=*/2);
  core::RunnerOptions runner;
  runner.machines = 4;
  runner.max_experiment_time = util::SimTime::hours(48);
  const auto pop = core::run_experiment(trace, *pop_policy, runner);
  std::printf("  POP on the same trace: %s\n",
              pop.reached_target ? util::format_duration(pop.time_to_target).c_str()
                                 : "not reached");
  return 0;
}
