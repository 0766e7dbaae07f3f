// StudyManager tests (multi-tenant study scheduling, DESIGN.md §9):
//   * a single study routed through the manager is byte-identical to a
//     single cluster run (timeline and result), however the run ends;
//   * fair-share arbitration hands a finished study's capacity to the
//     survivors, static partitioning strands it;
//   * cancellation drains a tenant and the pool absorbs its slots;
//   * a 3-study mix is deterministic: two runs produce identical merged
//     timelines and CSV bytes, and a run_sweep fan-out over the spec's
//     `run` gives byte-identical tables at 1 and 8 worker threads;
//   * an attached sink changes no checkpoint or CSV byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/policies/asha_policy.hpp"
#include "core/policies/default_policy.hpp"
#include "core/study/study_manager.hpp"
#include "core/sweep_engine.hpp"
#include "obs/sink.hpp"
#include "support/timeline.hpp"
#include "workload/trace.hpp"

namespace hyperdrive::core {
namespace {

using util::SimTime;

workload::Trace curved_trace(std::size_t jobs, std::size_t epochs, double top,
                             double tau, double target) {
  workload::Trace trace;
  trace.workload_name = "curved";
  trace.target_performance = target;
  trace.kill_threshold = 0.0;
  trace.evaluation_boundary = 2;
  trace.max_epochs = epochs;
  for (std::size_t i = 0; i < jobs; ++i) {
    workload::TraceJob job;
    job.job_id = i + 1;
    job.curve.epoch_duration = SimTime::seconds(60);
    // Stagger asymptotes so exactly the last job reaches `top`.
    const double ceiling = top * (0.7 + 0.3 * static_cast<double>(i + 1) /
                                            static_cast<double>(jobs));
    for (std::size_t e = 1; e <= epochs; ++e) {
      job.curve.perf.push_back(
          ceiling * (1.0 - std::exp(-static_cast<double>(e) / tau)));
    }
    trace.jobs.push_back(std::move(job));
  }
  return trace;
}

StudySpec make_spec(std::string name, std::uint64_t seed = 1) {
  StudySpec spec;
  spec.name = std::move(name);
  spec.seed = seed;
  spec.tmax = SimTime::hours(48);
  return spec;
}

std::function<std::unique_ptr<SchedulingPolicy>()> default_policy_factory() {
  return [] { return std::make_unique<DefaultPolicy>(); };
}

/// A finished multi-study run plus what its sink recorded: the events and
/// their timeline rows.
struct Traced {
  MultiStudyResult result;
  std::vector<std::string> timeline;
  std::vector<obs::TraceEvent> events;
};

/// How a lone run ends: at its target, by quiescence on the last stat
/// delivery with every job done, at Tmax, or by quiescence with idle slots
/// and paused jobs that no event can resume.
enum class Ending { Target, LastStat, Tmax, IdlePaused };

/// One row of the single-run vs single-study agreement table.
struct AgreementCase {
  const char* name;
  Ending ending;
  double target;
  SimTime tmax;
  std::function<std::unique_ptr<SchedulingPolicy>()> policy;
};

TEST(StudyManagerTest, SingleStudyIsByteIdenticalToOwnedCluster) {
  const auto strict_asha = [] {
    AshaConfig config;
    config.strict_promotion = true;
    return std::make_unique<AshaPolicy>(config);
  };
  const std::vector<AgreementCase> cases = {
      {"target-reached", Ending::Target, 0.85, SimTime::hours(48), default_policy_factory()},
      {"unreachable-target", Ending::LastStat, 0.99, SimTime::hours(48),
       default_policy_factory()},
      {"tmax", Ending::Tmax, 0.99, SimTime::minutes(20), default_policy_factory()},
      {"strict-asha-idle", Ending::IdlePaused, 0.99, SimTime::hours(48), strict_asha},
  };
  for (const AgreementCase& c : cases) {
    SCOPED_TRACE(c.name);
    const auto trace = curved_trace(12, 10, 0.9, 3.0, c.target);

    obs::RecordingSink single_sink;
    cluster::ClusterOptions co;
    co.machines = 4;
    co.seed = 5;
    co.max_experiment_time = c.tmax;
    co.obs.sink = &single_sink;
    const auto single_policy = c.policy();
    const auto single = cluster::run_cluster_experiment(trace, *single_policy, co);

    obs::RecordingSink multi_sink;
    StudyManagerOptions options;
    options.machines = 4;
    options.obs.sink = &multi_sink;
    StudyManager manager(options);
    auto spec = make_spec("solo", 5);
    spec.tmax = c.tmax;
    manager.add_study(spec, trace, c.policy);
    const auto multi = manager.run();

    // The case ends the way it is named.
    const bool paused = std::any_of(
        single.job_stats.begin(), single.job_stats.end(),
        [](const JobRunStats& js) { return js.final_status == JobStatus::Suspended; });
    switch (c.ending) {
      case Ending::Target:
        EXPECT_TRUE(single.reached_target);
        break;
      case Ending::LastStat:
        EXPECT_FALSE(single.reached_target);
        EXPECT_LT(single.total_time, c.tmax);
        EXPECT_FALSE(paused);
        break;
      case Ending::Tmax:
        EXPECT_EQ(single.total_time, c.tmax);
        EXPECT_TRUE(has_event(single_sink, {.kind = obs::EventKind::StudyTimeout}));
        break;
      case Ending::IdlePaused:
        EXPECT_LT(single.total_time, c.tmax);
        EXPECT_TRUE(paused);
        break;
    }

    ASSERT_EQ(multi.studies.size(), 1u);
    const auto& study = multi.studies[0].result;
    // The whole event stream — allocation order, message timing, decisions,
    // the study-timeout at Tmax — must match byte for byte. The manager's own
    // capacity events have no single-run counterpart.
    const auto want = timeline(single_sink);
    const auto got =
        timeline(multi_sink, {obs::EventKind::NodeAcquired, obs::EventKind::NodeReleased});
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      EXPECT_EQ(got[i], want[i]) << "line " << i;
    }
    EXPECT_EQ(study.reached_target, single.reached_target);
    EXPECT_EQ(study.time_to_target, single.time_to_target);
    EXPECT_EQ(study.total_time, single.total_time);
    EXPECT_EQ(study.total_machine_time, single.total_machine_time);
    EXPECT_EQ(study.slot_seconds, single.slot_seconds);
    EXPECT_EQ(study.spend_usd, single.spend_usd);
    EXPECT_EQ(study.suspends, single.suspends);
    EXPECT_EQ(study.terminations, single.terminations);
    EXPECT_EQ(study.jobs_started, single.jobs_started);
    EXPECT_EQ(study.winning_job, single.winning_job);
    EXPECT_EQ(study.best_perf, single.best_perf);
    EXPECT_EQ(study.job_stats.size(), single.job_stats.size());
    for (std::size_t i = 0; i < std::min(study.job_stats.size(), single.job_stats.size()); ++i) {
      EXPECT_EQ(study.job_stats[i].final_status, single.job_stats[i].final_status);
      EXPECT_EQ(study.job_stats[i].epochs_completed, single.job_stats[i].epochs_completed);
      EXPECT_EQ(study.job_stats[i].execution_time, single.job_stats[i].execution_time);
    }
    // A lone study holds the full pool for its whole run.
    EXPECT_EQ(study.lease_grants, 0u);
    EXPECT_EQ(study.lease_reclaims, 0u);
  }
}

TEST(StudyManagerTest, FairShareHandsFinishedStudysSlotsToSurvivors) {
  // "quick" reaches its target early; "slow" never does and grinds to Tmax
  // ... well, to trace completion. Under FairShare the survivor inherits the
  // quick study's slots; under StaticPartition they strand.
  const auto quick = curved_trace(4, 8, 0.9, 2.0, 0.6);
  const auto slow = curved_trace(8, 16, 0.5, 6.0, 0.99);

  const auto run_mode = [&](ArbitrationMode mode) {
    StudyManagerOptions options;
    options.machines = 6;
    options.arbitration = mode;
    options.arbitration_interval = SimTime::minutes(5);
    StudyManager manager(options);
    manager.add_study(make_spec("quick", 2), quick, default_policy_factory());
    manager.add_study(make_spec("slow", 3), slow, default_policy_factory());
    return manager.run();
  };

  const auto fair = run_mode(ArbitrationMode::FairShare);
  ASSERT_EQ(fair.studies.size(), 2u);
  EXPECT_TRUE(fair.studies[0].result.reached_target);
  // The survivor received the quick study's drained slots.
  EXPECT_GE(fair.studies[1].result.lease_grants, 3u);

  const auto fixed = run_mode(ArbitrationMode::StaticPartition);
  ASSERT_EQ(fixed.studies.size(), 2u);
  EXPECT_TRUE(fixed.studies[0].result.reached_target);
  EXPECT_EQ(fixed.studies[1].result.lease_grants, 0u);
  // Inherited capacity means the fair-share survivor finishes no later.
  EXPECT_LE(fair.studies[1].result.total_time, fixed.studies[1].result.total_time);
  // Slot-seconds ledger: the fair survivor was charged for more capacity.
  EXPECT_GT(fair.studies[1].result.slot_seconds, fixed.studies[1].result.slot_seconds);
}

TEST(StudyManagerTest, CancellationDrainsTheTenant) {
  const auto a = curved_trace(8, 16, 0.5, 6.0, 0.99);  // never reaches target
  const auto b = curved_trace(8, 16, 0.5, 6.0, 0.99);

  StudyManagerOptions options;
  options.machines = 4;
  options.arbitration = ArbitrationMode::FairShare;
  obs::RecordingSink sink;
  options.obs.sink = &sink;
  StudyManager manager(options);
  auto cancelled = make_spec("doomed", 4);
  cancelled.cancel_at = SimTime::minutes(10);
  manager.add_study(cancelled, a, default_policy_factory());
  manager.add_study(make_spec("survivor", 5), b, default_policy_factory());
  const auto result = manager.run();

  ASSERT_EQ(result.studies.size(), 2u);
  EXPECT_TRUE(result.studies[0].cancelled);
  EXPECT_FALSE(result.studies[0].result.reached_target);
  EXPECT_EQ(result.studies[0].result.total_time, SimTime::minutes(10));
  EXPECT_FALSE(result.studies[1].cancelled);
  // The survivor inherited the cancelled study's slots and its jobs all ran.
  EXPECT_GE(result.studies[1].result.lease_grants, 1u);
  EXPECT_EQ(result.studies[1].result.jobs_started, 8u);
  EXPECT_FALSE(result.aggregate().reached_target);
  // The merged stream attributes every tenant event.
  EXPECT_TRUE(has_event(sink, {.kind = obs::EventKind::StudyCancelled, .study = "doomed"}));
}

Traced run_three_study_mix(std::uint64_t base_seed) {
  obs::RecordingSink sink;
  StudyManagerOptions options;
  options.machines = 6;
  options.arbitration = ArbitrationMode::FairShare;
  options.arbitration_interval = SimTime::minutes(5);
  options.seed = base_seed;
  options.obs.sink = &sink;
  StudyManager manager(options);
  manager.add_study(make_spec("alpha", base_seed ^ 11),
                    curved_trace(6, 12, 0.9, 3.0, 0.85),
                    default_policy_factory());
  manager.add_study(make_spec("beta", base_seed ^ 22),
                    curved_trace(8, 10, 0.6, 4.0, 0.99),
                    default_policy_factory());
  auto gamma = make_spec("gamma", base_seed ^ 33);
  gamma.weight = 2.0;
  manager.add_study(gamma, curved_trace(4, 8, 0.9, 2.0, 0.75),
                    default_policy_factory());
  MultiStudyResult result = manager.run();
  return {std::move(result), timeline(sink), std::move(sink.events)};
}

std::string csv_bytes(const MultiStudyResult& result) {
  std::ostringstream out;
  result.save_csv(out);
  return out.str();
}

TEST(StudyManagerTest, ThreeStudyMixIsDeterministic) {
  const auto a = run_three_study_mix(9);
  const auto b = run_three_study_mix(9);
  ASSERT_FALSE(a.timeline.empty());
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    ASSERT_EQ(a.timeline[i], b.timeline[i]) << "line " << i;
  }
  EXPECT_EQ(csv_bytes(a.result), csv_bytes(b.result));
  EXPECT_EQ(a.result.rebalances, b.result.rebalances);
  EXPECT_EQ(a.result.total_time, b.result.total_time);
  // Every tenant event of a multi-study stream is attributed to its study;
  // only the manager's own capacity events carry none.
  for (const obs::TraceEvent& event : a.events) {
    if (event.kind == obs::EventKind::NodeAcquired ||
        event.kind == obs::EventKind::NodeReleased) {
      continue;
    }
    EXPECT_FALSE(event.study.empty()) << timeline_row(event);
  }
}

TEST(StudyManagerTest, SweepOverRunHookIsThreadCountInvariant) {
  // Four independent multi-study sweep cells; slot-per-cell writes keep the
  // table identical at any thread count.
  const auto make_sweep = [&](std::vector<std::vector<std::string>>& logs) {
    SweepSpec spec;
    spec.name = "multi_study_mix";
    spec.base_seed = 17;
    spec.add_repeat_axis(4);
    logs.assign(4, {});
    spec.run = [&logs](const SweepCell& cell) {
      auto mix = run_three_study_mix(cell.seed);
      logs[cell.linear] = std::move(mix.timeline);
      return mix.result.aggregate();
    };
    return spec;
  };

  std::vector<std::vector<std::string>> serial_logs, parallel_logs;
  const auto serial_spec = make_sweep(serial_logs);
  const auto serial = run_sweep(serial_spec, 1);
  const auto parallel_spec = make_sweep(parallel_logs);
  const auto parallel = run_sweep(parallel_spec, 8);

  std::ostringstream sa, sb;
  serial.save_csv(sa);
  parallel.save_csv(sb);
  EXPECT_EQ(sa.str(), sb.str());
  ASSERT_EQ(serial_logs.size(), parallel_logs.size());
  for (std::size_t c = 0; c < serial_logs.size(); ++c) {
    ASSERT_FALSE(serial_logs[c].empty()) << "cell " << c;
    EXPECT_EQ(serial_logs[c], parallel_logs[c]) << "cell " << c;
  }
}

TEST(StudyManagerTest, AttachedSinkLeavesCheckpointsAndCsvUnchanged) {
  // Telemetry stays off the manager's timeline: a sink observes the run
  // without changing a byte of its periodic checkpoints, its final on-demand
  // capture or its CSV.
  struct Captured {
    std::vector<std::vector<std::uint8_t>> states;  ///< periodic, then final
    std::string csv;
  };
  const auto capture = [](obs::EventSink* sink) {
    Captured out;
    StudyManagerOptions options;
    options.machines = 4;
    options.arbitration_interval = SimTime::minutes(5);
    options.checkpoint_every = SimTime::minutes(7);
    options.obs.sink = sink;
    options.on_checkpoint = [&out](ManagerCheckpoint&& cp) {
      out.states.push_back(std::move(cp.state));
      return true;
    };
    StudyManager manager(options);
    manager.add_study(make_spec("alpha", 3), curved_trace(6, 12, 0.9, 3.0, 0.85),
                      default_policy_factory());
    manager.add_study(make_spec("beta", 4), curved_trace(8, 10, 0.6, 4.0, 0.99),
                      default_policy_factory());
    const auto result = manager.run();
    out.states.push_back(manager.capture_checkpoint().state);
    out.csv = csv_bytes(result);
    return out;
  };

  obs::RecordingSink sink;
  const Captured bare = capture(nullptr);
  const Captured observed = capture(&sink);
  ASSERT_FALSE(sink.events.empty());
  ASSERT_GE(bare.states.size(), 3u);  // at least two periodic + the final one
  EXPECT_EQ(bare.states, observed.states);
  EXPECT_EQ(bare.csv, observed.csv);
}

TEST(StudyManagerTest, DeadlineAwareModeRunsAndFlagsDeadlines) {
  StudyManagerOptions options;
  options.machines = 6;
  options.arbitration = ArbitrationMode::DeadlineAware;
  options.arbitration_interval = SimTime::minutes(5);
  StudyManager manager(options);
  auto urgent = make_spec("urgent", 8);
  urgent.deadline = SimTime::hours(1);
  manager.add_study(urgent, curved_trace(6, 12, 0.9, 3.0, 0.85),
                    default_policy_factory());
  manager.add_study(make_spec("background", 9),
                    curved_trace(8, 16, 0.5, 6.0, 0.99),
                    default_policy_factory());
  const auto result = manager.run();

  ASSERT_EQ(result.studies.size(), 2u);
  const auto& u = result.studies[0];
  EXPECT_EQ(u.deadline_met,
            u.result.reached_target && u.result.time_to_target <= SimTime::hours(1));
  EXPECT_TRUE(u.spec.has_deadline());
  EXPECT_FALSE(result.studies[1].spec.has_deadline());
}

// --- elastic cost-aware capacity (DESIGN.md §15) -----------------------------

Traced run_elastic_mix(std::uint64_t seed) {
  obs::RecordingSink sink;
  StudyManagerOptions options;
  cluster::NodeCatalog catalog;
  catalog.add({"standard", 3, 1.0, 1.0, false});
  catalog.add({"burst", 3, 2.5, 1.5, true});
  options.catalog = catalog;
  options.arbitration = ArbitrationMode::Cost;
  options.arbitration_interval = SimTime::minutes(5);
  options.seed = seed;
  options.obs.sink = &sink;
  cluster::SpotPreemptionEvent spot;  // reclaim a burst node mid-run
  spot.machine = 4;
  spot.at = SimTime::minutes(20);
  options.fault_plan.spot_preemptions.push_back(spot);
  StudyManager manager(options);
  auto urgent = make_spec("urgent", seed ^ 11);
  urgent.deadline = SimTime::hours(2);
  urgent.node_class = "burst";
  manager.add_study(urgent, curved_trace(5, 10, 0.9, 3.0, 0.85),
                    default_policy_factory());
  auto thrifty = make_spec("thrifty", seed ^ 22);
  thrifty.budget_usd = 4.0;
  manager.add_study(thrifty, curved_trace(6, 8, 0.6, 4.0, 0.99),
                    default_policy_factory());
  MultiStudyResult result = manager.run();
  return {std::move(result), timeline(sink), std::move(sink.events)};
}

TEST(ElasticStudyManagerTest, AutoscaledSpotRunsAreDeterministicAcrossThirtySeeds) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const auto a = run_elastic_mix(seed);
    const auto b = run_elastic_mix(seed);
    ASSERT_FALSE(a.timeline.empty()) << "seed " << seed;
    ASSERT_EQ(a.timeline.size(), b.timeline.size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.timeline.size(); ++i) {
      ASSERT_EQ(a.timeline[i], b.timeline[i]) << "seed " << seed << " line " << i;
    }
    ASSERT_EQ(csv_bytes(a.result), csv_bytes(b.result)) << "seed " << seed;
    ASSERT_EQ(a.result.spend_usd, b.result.spend_usd) << "seed " << seed;
    ASSERT_EQ(a.result.total_time, b.result.total_time) << "seed " << seed;
  }
}

TEST(ElasticStudyManagerTest, CostModeSpendsLessThanFairWithoutMissingDeadlines) {
  const auto run_mode = [](ArbitrationMode mode) {
    StudyManagerOptions options;
    cluster::NodeCatalog catalog;
    catalog.add({"standard", 4, 1.0, 1.0, false});
    catalog.add({"premium", 4, 3.0, 1.0, false});
    options.catalog = catalog;
    options.arbitration = mode;
    options.arbitration_interval = SimTime::minutes(5);
    StudyManager manager(options);
    auto urgent = make_spec("urgent", 8);
    urgent.deadline = SimTime::hours(3);
    manager.add_study(urgent, curved_trace(3, 10, 0.9, 3.0, 0.85),
                      default_policy_factory());
    manager.add_study(make_spec("background", 9), curved_trace(3, 8, 0.9, 2.0, 0.75),
                      default_policy_factory());
    return manager.run();
  };

  const auto fair = run_mode(ArbitrationMode::FairShare);
  const auto cost = run_mode(ArbitrationMode::Cost);
  ASSERT_EQ(fair.studies.size(), 2u);
  ASSERT_EQ(cost.studies.size(), 2u);
  // Six jobs can never use eight nodes: cost mode caps each tenant to its
  // active-job count and the autoscaler sheds the surplus, so the bill drops
  // while the work still completes.
  EXPECT_GT(fair.spend_usd, 0.0);
  EXPECT_LT(cost.spend_usd, fair.spend_usd);
  EXPECT_GE(cost.studies[0].deadline_met, fair.studies[0].deadline_met);
  for (const auto& study : cost.studies) {
    EXPECT_EQ(study.result.jobs_started, 3u);
  }
  // The per-tenant chargeback ledger also shrinks and stays consistent.
  EXPECT_GT(cost.studies[0].result.spend_usd, 0.0);
  EXPECT_LE(cost.studies[0].result.spend_usd + cost.studies[1].result.spend_usd,
            fair.studies[0].result.spend_usd + fair.studies[1].result.spend_usd);
}

TEST(ElasticStudyManagerTest, TenantBudgetCapThrottlesToOneSlot) {
  const auto run_with_budget = [](double budget) {
    StudyManagerOptions options;
    options.machines = 4;
    options.arbitration = ArbitrationMode::Cost;
    options.arbitration_interval = SimTime::minutes(5);
    StudyManager manager(options);
    auto spec = make_spec("capped", 3);
    spec.budget_usd = budget;
    manager.add_study(spec, curved_trace(4, 8, 0.9, 2.0, 0.99),
                      default_policy_factory());
    return manager.run();
  };

  const auto roomy = run_with_budget(1e9);
  const auto tight = run_with_budget(0.05);
  ASSERT_EQ(roomy.studies.size(), 1u);
  ASSERT_EQ(tight.studies.size(), 1u);
  // Once the tenant's spend crosses its budget the arbiter clamps it to one
  // slot: the run finishes (no starvation) but holds less capacity for
  // longer, so the chargeback grows slower per unit time.
  EXPECT_EQ(tight.studies[0].result.jobs_started, 4u);
  EXPECT_GT(tight.studies[0].result.total_time, roomy.studies[0].result.total_time);
  EXPECT_GE(tight.studies[0].result.lease_reclaims,
            roomy.studies[0].result.lease_reclaims);
}

TEST(StudyManagerTest, RejectsBadConfigurations) {
  StudyManagerOptions options;
  options.machines = 1;
  StudyManager manager(options);
  manager.add_study(make_spec("a"), curved_trace(2, 4, 0.9, 2.0, 0.5),
                    default_policy_factory());
  EXPECT_THROW(
      manager.add_study(make_spec("a"), curved_trace(2, 4, 0.9, 2.0, 0.5),
                        default_policy_factory()),
      std::invalid_argument);  // duplicate name
  manager.add_study(make_spec("b"), curved_trace(2, 4, 0.9, 2.0, 0.5),
                    default_policy_factory());
  EXPECT_THROW((void)manager.run(), std::invalid_argument);  // pool too small

  StudyManager empty{StudyManagerOptions{}};
  EXPECT_THROW((void)empty.run(), std::invalid_argument);

  EXPECT_THROW((void)arbitration_from_string("roundrobin"), std::invalid_argument);
  EXPECT_EQ(arbitration_from_string("deadline"), ArbitrationMode::DeadlineAware);
  EXPECT_EQ(arbitration_from_string("cost"), ArbitrationMode::Cost);
  EXPECT_EQ(to_string(ArbitrationMode::StaticPartition), "static");
  EXPECT_EQ(to_string(ArbitrationMode::Cost), "cost");
}

}  // namespace
}  // namespace hyperdrive::core
