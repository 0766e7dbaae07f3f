// PolicyRegistry tests (DESIGN.md §13):
//   * PolicyParams parsing, typed getters and unknown-key rejection;
//   * the registry's built-in name set and construction errors;
//   * golden-trace byte-identity: pop, bandit, earlyterm, default and
//     hyperband built by name are indistinguishable — event stream and
//     results — from direct construction out of their config structs,
//     barrier-wrapped or not;
//   * ASHA/PBT determinism: a parallel sweep over 30 fresh-noise seeds is
//     byte-identical to the serial one;
//   * PBT exploit/explore: clones happen on the cluster substrate, the clone
//     resumes from the donor's epoch, hyperparameters are perturbed, and no
//     target-reaching configuration is wrongly killed.
#include "core/policy_registry.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "core/experiment_runner.hpp"
#include "core/generators/hyperparameter_generator.hpp"
#include "core/policies/bandit_policy.hpp"
#include "core/policies/barrier_policy.hpp"
#include "core/policies/default_policy.hpp"
#include "core/policies/earlyterm_policy.hpp"
#include "core/policies/hyperband_policy.hpp"
#include "core/policies/pop_policy.hpp"
#include "core/sweep_engine.hpp"
#include "obs/sink.hpp"
#include "support/timeline.hpp"
#include "workload/cifar_model.hpp"
#include "workload/trace_tools.hpp"

namespace hyperdrive::core {
namespace {

TEST(PolicyParamsTest, ParsesAndRoundTrips) {
  const auto params = PolicyParams::parse(std::vector<std::string>{"eta=3", "rungs=4"});
  EXPECT_EQ(params.size(), 2u);
  EXPECT_EQ(params.to_string(), "eta=3 rungs=4");
  EXPECT_DOUBLE_EQ(params.get_double("eta", 2.0), 3.0);
  EXPECT_EQ(params.get_size("rungs", 1), 4u);
  EXPECT_TRUE(params.unconsumed().empty());
}

TEST(PolicyParamsTest, RejectsMalformedTokens) {
  EXPECT_THROW((void)PolicyParams::parse(std::vector<std::string>{"eta"}),
               std::invalid_argument);
  EXPECT_THROW((void)PolicyParams::parse(std::vector<std::string>{"=3"}),
               std::invalid_argument);
  EXPECT_THROW((void)PolicyParams::parse(std::vector<std::string>{"eta=3", "eta=4"}),
               std::invalid_argument);
  const auto params = PolicyParams::parse(std::vector<std::string>{"eta=x"});
  EXPECT_THROW((void)params.get_double("eta", 1.0), std::invalid_argument);
}

TEST(PolicyRegistryTest, BuiltinsRegisteredInHelpOrder) {
  const auto& registry = PolicyRegistry::instance();
  const std::vector<std::string> expected = {"pop",       "bandit", "earlyterm",
                                             "default",   "hyperband", "asha",
                                             "pbt"};
  EXPECT_EQ(registry.names(), expected);
  EXPECT_EQ(registry.name_list('|'), "pop|bandit|earlyterm|default|hyperband|asha|pbt");
  for (const auto& name : expected) EXPECT_TRUE(registry.has(name));
  EXPECT_FALSE(registry.has("nope"));
}

TEST(PolicyRegistryTest, EveryBuiltinConstructsUnderItsOwnName) {
  for (const auto& name : PolicyRegistry::instance().names()) {
    const auto policy = make_registry_policy(name);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_EQ(policy->name(), name);
  }
}

TEST(PolicyRegistryTest, UnknownNameAndUnknownKeyThrow) {
  EXPECT_THROW((void)make_registry_policy("nope"), std::invalid_argument);
  EXPECT_THROW(
      (void)make_registry_policy("pop", PolicyParams::parse(std::string("typo=1"))),
      std::invalid_argument);
  // A key another policy accepts is still rejected here.
  EXPECT_THROW(
      (void)make_registry_policy("default", PolicyParams::parse(std::string("eta=3"))),
      std::invalid_argument);
}

TEST(PolicyRegistryTest, ParamsReachTheFactory) {
  // asha accepts eta; a bad value fails loudly at construction.
  EXPECT_NO_THROW((void)make_registry_policy("asha", PolicyParams::parse(
                                                         std::string("eta=4"))));
  EXPECT_THROW((void)make_registry_policy(
                   "asha", PolicyParams::parse(std::string("eta=fast"))),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Byte-identity: registry construction vs direct construction.

/// Each policy built from its config struct with defaults; the
/// predictor-backed ones get the default predictor, POP horizon = tmax.
std::unique_ptr<SchedulingPolicy> direct_policy(const std::string& name, std::uint64_t seed,
                                                util::SimTime tmax) {
  if (name == "bandit") return std::make_unique<BanditPolicy>(BanditConfig{});
  if (name == "hyperband") return std::make_unique<HyperbandPolicy>(HyperbandConfig{});
  if (name == "earlyterm") {
    EarlyTermConfig config;
    config.predictor = make_default_predictor(seed);
    return std::make_unique<EarlyTermPolicy>(std::move(config));
  }
  if (name == "pop") {
    PopConfig config;
    config.predictor = make_default_predictor(seed);
    config.tmax = tmax;
    return std::make_unique<PopPolicy>(std::move(config));
  }
  return std::make_unique<DefaultPolicy>();
}

/// Run `policy` on the high-fidelity cluster and render the full typed event
/// stream plus the headline results as one comparable string.
std::string run_journal(const workload::Trace& trace,
                        std::unique_ptr<SchedulingPolicy> policy) {
  RunnerOptions options;
  options.substrate = Substrate::Cluster;
  options.machines = 3;
  options.seed = 11;
  options.max_experiment_time = util::SimTime::hours(96);
  obs::RecordingSink sink;
  options.obs.sink = &sink;
  const auto result = run_experiment(trace, *policy, options);
  std::ostringstream out;
  for (const auto& event : sink.events) out << timeline_row(event) << '\n';
  out << result.reached_target << ' ' << result.time_to_target.to_seconds() << ' '
      << result.total_machine_time.to_seconds() << ' ' << result.terminations << ' '
      << result.jobs_started << '\n';
  return out.str();
}

TEST(PolicyRegistryTest, RegistryMatchesDirectConstructionByteForByte) {
  workload::CifarWorkloadModel model;
  const auto trace = workload::reachable_trace(model, 20, 321);
  const auto tmax = util::SimTime::hours(48);
  for (const std::string name : {"default", "bandit", "earlyterm", "pop", "hyperband"}) {
    EXPECT_EQ(run_journal(trace, make_standard_policy(name, 7, tmax)),
              run_journal(trace, direct_policy(name, 7, tmax)))
        << name;
  }
}

TEST(PolicyRegistryTest, BarrierWrapsAnyRegistryPolicyByteForByte) {
  workload::CifarWorkloadModel model;
  const auto trace = workload::reachable_trace(model, 20, 654);
  const auto tmax = util::SimTime::hours(48);
  for (const auto& name : {"pop", "bandit", "hyperband", "asha"}) {
    EXPECT_EQ(run_journal(trace, std::make_unique<BarrierPolicy>(
                                     make_standard_policy(name, 5, tmax))),
              run_journal(trace, std::make_unique<BarrierPolicy>(
                                     make_standard_policy(name, 5, tmax))))
        << name;
  }
  // And the wrapper around a registry-built POP equals the wrapper around
  // the direct construction (the CLI --barrier path).
  EXPECT_EQ(run_journal(trace, std::make_unique<BarrierPolicy>(
                                   make_standard_policy("pop", 5, tmax))),
            run_journal(trace, std::make_unique<BarrierPolicy>(
                                   direct_policy("pop", 5, tmax))));
}

// ---------------------------------------------------------------------------
// ASHA / PBT golden determinism.

SweepSpec zoo_sweep(std::shared_ptr<const workload::WorkloadModel> model) {
  SweepSpec spec;
  spec.name = "zoo_determinism";
  const auto policy_ax = spec.add_policy_axis({"asha", "pbt"});
  const auto repeat_ax = spec.add_repeat_axis(30);
  spec.run = [model, policy_ax, repeat_ax](const SweepCell& cell) {
    const auto trace = workload::reachable_trace(*model, 16, 9000 + cell.at(repeat_ax) * 13);
    const std::vector<std::string> names = {"asha", "pbt"};
    const auto policy = make_standard_policy(names[cell.at(policy_ax)], cell.at(repeat_ax));
    RunnerOptions options;
    options.substrate = Substrate::TraceReplay;
    options.machines = 3;
    options.seed = cell.at(1);
    options.max_experiment_time = util::SimTime::hours(96);
    options.explore = make_model_explore(model);
    return run_experiment(trace, *policy, options);
  };
  return spec;
}

TEST(SchedulerZooTest, AshaAndPbtAreDeterministicAcrossThreadCounts) {
  const auto model = std::make_shared<workload::CifarWorkloadModel>();
  const auto serial = run_sweep(zoo_sweep(model), 1);
  const auto parallel = run_sweep(zoo_sweep(model), 8);
  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
}

// ---------------------------------------------------------------------------
// PBT exploit/explore semantics.

TEST(SchedulerZooTest, ExploreSplicesDonorPrefixAndPerturbsConfig) {
  const auto model = std::make_shared<workload::CifarWorkloadModel>();
  const auto trace = workload::generate_trace(*model, 4, 42);
  const auto explore = make_model_explore(model);
  const auto& target = trace.jobs[0];
  const auto& donor = trace.jobs[1];
  const std::size_t epoch = 5;
  const auto clone = explore(target, donor, epoch, /*stream=*/77);
  EXPECT_EQ(clone.job_id, target.job_id);
  // The donor's observed epochs are ground truth for the clone (same
  // weights), so the curve is continuous at the splice point.
  for (std::size_t e = 0; e < epoch; ++e) {
    EXPECT_DOUBLE_EQ(clone.curve.perf[e], donor.curve.perf[e]) << e;
  }
  // The hyperparameters moved (Gaussian perturbation of every continuous
  // dimension — a no-op draw has measure zero).
  EXPECT_NE(clone.config.to_string(), donor.config.to_string());
  // Deterministic in the stream, different across streams.
  EXPECT_EQ(explore(target, donor, epoch, 77).config.to_string(),
            clone.config.to_string());
  EXPECT_NE(explore(target, donor, epoch, 78).config.to_string(),
            clone.config.to_string());
}

TEST(SchedulerZooTest, PbtClonesOnClusterAndResumesFromDonorEpoch) {
  const auto model = std::make_shared<workload::CifarWorkloadModel>();
  const auto trace = workload::reachable_trace(*model, 16, 777);
  auto policy = make_standard_policy("pbt", 3);
  RunnerOptions options;
  options.substrate = Substrate::Cluster;
  options.machines = 4;
  options.seed = 3;
  options.max_experiment_time = util::SimTime::hours(96);
  options.explore = make_model_explore(model);
  obs::RecordingSink sink;
  options.obs.sink = &sink;
  const auto result = run_experiment(trace, *policy, options);

  // Exploit happened, and the ground-truth oracle saw no wrong kill — PBT
  // never terminates, it only redirects losers onto winners' weights.
  ASSERT_GE(result.clones, 1u);
  EXPECT_EQ(sink.count(obs::EventKind::JobClone), result.clones);
  EXPECT_EQ(result.recovery.wrong_kills, 0u);
  EXPECT_EQ(sink.count(obs::EventKind::JobTerminate), 0u);

  // When a cloned job next gets a machine it resumes from exactly the
  // donor's snapshot epoch (the normal snapshot-restore path — the clone
  // starts from adopted weights). Clones minted just before the target is
  // reached may never be rescheduled; at least one must be.
  std::map<std::int64_t, std::int64_t> pending_clone_epoch;
  std::size_t verified_resumes = 0;
  for (const auto& event : sink.events) {
    if (event.kind == obs::EventKind::JobClone) {
      pending_clone_epoch[event.job] = event.epoch;
    } else if (event.kind == obs::EventKind::JobResume) {
      const auto it = pending_clone_epoch.find(event.job);
      if (it == pending_clone_epoch.end()) continue;
      EXPECT_EQ(event.epoch, it->second) << "job " << event.job;
      pending_clone_epoch.erase(it);
      ++verified_resumes;
    }
  }
  EXPECT_GE(verified_resumes, 1u);
}

}  // namespace
}  // namespace hyperdrive::core
