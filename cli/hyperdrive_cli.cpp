// hyperdrive_cli — command-line experiment driver (the Experiment Runner
// client of §4.2 ➀ as an executable).
//
//   hyperdrive_cli --workload cifar10 --policy pop --machines 4 --repeats 3
//   hyperdrive_cli --workload lunarlander --policy bandit --substrate cluster
//   hyperdrive_cli --workload ptb_lstm --policy hyperband --generator tpe
//   hyperdrive_cli --trace-out run.csv --metrics-out metrics.csv ...
//   hyperdrive_cli --help
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "cluster/cluster.hpp"
#include "core/experiment_runner.hpp"
#include "core/policies/barrier_policy.hpp"
#include "core/study/coordinator.hpp"
#include "core/study/study_manager.hpp"
#include "core/policy_registry.hpp"
#include "core/sweep_engine.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "util/cli_options.hpp"
#include "util/stats.hpp"

using namespace hyperdrive;

namespace {

struct CliConfig {
  /// The single-study flags (--workload, --policy, --policy-opt, --generator,
  /// --configs, --seed, --tmax-hours), resolved by core::resolve_study like
  /// a study file. Its seed is also the multi-study base seed.
  core::StudySpec study;
  std::string substrate = "replay";
  std::string save_trace;
  std::size_t machines = 4;
  std::size_t repeats = 1;
  /// Sweep worker threads; 0 = all hardware cores. Repeats are independent
  /// cells, so they fan out without changing any reported number.
  std::size_t jobs = 0;
  /// When set, write the SweepTable CSV (EXPERIMENTS.md "Sweep CSV schema").
  std::string csv;
  bool stop_on_target = true;
  bool barrier = false;
  bool verbose = false;
  /// Observability exports (DESIGN.md §10).
  std::string trace_out;
  std::string metrics_out;
  /// Fault profile (cluster substrate only; see DESIGN.md "Fault model").
  cluster::FaultPlan fault_plan;
  /// Gray-failure detection & mitigation (cluster substrate only; §7).
  bool health = false;
  /// Multi-study mode (§9): study spec files sharing one cluster.
  std::vector<std::string> studies;
  std::string arbitration = "fair";
  /// Elastic cost-aware capacity (DESIGN.md §15). The catalog shapes cluster
  /// runs and multi-study mode; the budget applies to multi-study mode only.
  cluster::NodeCatalog catalog;
  double budget_usd = std::numeric_limits<double>::infinity();
  /// Coordinator crash-recovery (DESIGN.md §12; multi-study mode only).
  std::string checkpoint_out;
  double checkpoint_every_s = 0.0;
  std::string resume_from;
  std::size_t kill_after_checkpoints = 0;

  /// Fleet size: the catalog's node total when a catalog is given.
  [[nodiscard]] std::size_t machine_total() const {
    return catalog.empty() ? machines : catalog.total_nodes();
  }

  [[nodiscard]] bool any_checkpointing() const {
    return !checkpoint_out.empty() || checkpoint_every_s > 0.0 || !resume_from.empty() ||
           kill_after_checkpoints != 0;
  }
};

/// One --fault-crash value, "M:T[:R]": machine id M (a MachineId), crash
/// time T and restart delay R in hours (finite, >= 0). Throws
/// std::invalid_argument on anything else.
cluster::NodeCrashEvent parse_crash(const std::string& spec) {
  const auto hours = [](const std::string& text, util::SimTime& out) {
    double h = 0.0;
    if (!cli::Options::parse_double(text, h) || !std::isfinite(h) || h < 0.0) return false;
    out = util::SimTime::hours(h);
    return true;
  };
  const std::size_t t = spec.find(':');
  const std::size_t r = t == std::string::npos ? t : spec.find(':', t + 1);
  std::uint64_t machine = 0;
  cluster::NodeCrashEvent crash;
  const bool ok =
      t != std::string::npos && cli::Options::parse_uint(spec.substr(0, t), machine) &&
      machine <= std::numeric_limits<cluster::MachineId>::max() &&
      hours(spec.substr(t + 1, r == std::string::npos ? r : r - t - 1), crash.at) &&
      (r == std::string::npos || hours(spec.substr(r + 1), crash.restart_after));
  if (!ok) throw std::invalid_argument("'" + spec + "' (want M:T[:R]: a machine id, hours >= 0)");
  crash.machine = static_cast<cluster::MachineId>(machine);
  return crash;
}

/// The full flag table; --help is generated from it, so the usage screen and
/// the parser cannot drift apart.
cli::Options make_options(CliConfig& config) {
  cli::Options options("hyperdrive_cli",
                       "run a hyperparameter-exploration experiment");
  options.section("experiment (defaults in brackets)");
  options.bind("--workload", "NAME", "cifar10|lunarlander|ptb_lstm  [cifar10]",
               config.study.workload);
  // Both the help text and the validation come from the PolicyRegistry, so
  // adding a policy there is all it takes to expose it here.
  options.bind("--policy", "NAME",
               core::PolicyRegistry::instance().name_list('|') + "  [pop]",
               config.study.policy);
  options.add("--policy-opt", "K=V",
              "policy-specific option, e.g. eta=4 (repeatable;\n"
              "valid keys per policy in DESIGN.md \"Scheduler zoo\")",
              [&config](const std::string& kv) {
                config.study.policy_params.push_back(kv);
                return true;
              });
  options.bind("--generator", "NAME", "random|grid|adaptive|tpe  [random]",
               config.study.generator);
  options.bind("--substrate", "NAME", "replay|cluster  [replay]", config.substrate);
  options.bind("--machines", "N", "machine slots  [4]", config.machines);
  options.bind("--configs", "N", "hyperparameter configurations  [100]",
               config.study.configs);
  options.bind("--repeats", "N", "repeats (fresh training noise each)  [1]",
               config.repeats);
  options.bind("--jobs", "N",
               "parallel sweep workers, 0 = all cores; results\n"
               "are identical for any N  [0]",
               config.jobs);
  options.bind("--csv", "FILE", "write the per-repeat sweep table as CSV", config.csv);
  options.bind("--seed", "S", "base seed  [1]", config.study.seed);
  options.add("--tmax-hours", "H", "experiment time limit  [48]",
              [&config](const std::string& text) {
                double hours = 0.0;
                if (!cli::Options::parse_double(text, hours)) return false;
                config.study.tmax = util::SimTime::hours(hours);
                return true;
              });
  options.add_flag("--run-all", "don't stop at the target",
                   [&config]() { config.stop_on_target = false; });
  options.add_flag("--barrier", "barrier-like breadth-first epoch scheduling",
                   config.barrier);
  options.bind("--save-trace", "FILE", "write the trace CSV", config.save_trace);
  options.add_flag("--verbose", "per-job epoch summary after each repeat",
                   config.verbose);

  options.section("observability (DESIGN.md \"Observability\")");
  options.bind("--trace-out", "FILE",
               "write the typed event timeline: single/sweep runs emit the\n"
               "cell-prefixed timeline CSV, multi-study runs the plain\n"
               "timeline (\".jsonl\" extension selects JSONL there)",
               config.trace_out);
  options.bind("--metrics-out", "FILE",
               "write the end-of-run metrics snapshot CSV", config.metrics_out);

  options.section("fault injection (cluster substrate only; deterministic per seed)");
  options.add("--fault-plan", "FILE",
              "load a full fault plan from FILE (see DESIGN.md;\n"
              "combines with the flags below)",
              [&config](const std::string& path) {
                std::ifstream in(path);
                if (!in) {
                  throw std::invalid_argument("cannot open fault plan '" + path + "'");
                }
                config.fault_plan = cluster::load_fault_plan(in);
                return true;
              });
  options.add_flag("--health",
                   "enable gray-failure detection & mitigation\n"
                   "(heartbeats, quarantine, straggler migration)",
                   config.health);
  options.bind("--fault-drop", "P", "drop each message with probability P",
               config.fault_plan.default_message_faults.drop_prob);
  options.bind("--fault-dup", "P", "duplicate each message with probability P",
               config.fault_plan.default_message_faults.duplicate_prob);
  options.bind("--fault-delay", "P",
               "delay messages with probability P (exp, 0.2s mean)",
               config.fault_plan.default_message_faults.delay_prob);
  options.add("--fault-crash", "M:T[:R]",
              "crash machine M at T hours; restart after R hours\n"
              "(omit R for a permanent loss; repeatable)",
              [&config](const std::string& spec) {
                config.fault_plan.crashes.push_back(parse_crash(spec));
                return true;
              });
  options.bind("--fault-snapshot-fail", "P",
               "snapshot capture/upload aborts with probability P",
               config.fault_plan.snapshot_upload_fail_prob);
  options.bind("--fault-snapshot-corrupt", "P",
               "stored snapshot gets a flipped bit with probability P",
               config.fault_plan.snapshot_corrupt_prob);
  options.bind("--fault-seed", "S", "seed of the fault decision stream  [0]",
               config.fault_plan.seed);

  options.section("multi-study mode (README \"Multi-tenant studies\")");
  options.add("--study", "FILE",
              "admit the study described by FILE (repeat the flag for\n"
              "concurrent studies; each file names its own workload/\n"
              "policy/target/deadline and the studies share the\n"
              "--machines pool)",
              [&config](const std::string& path) {
                config.studies.push_back(path);
                return true;
              });
  options.bind("--arbitration", "MODE",
               "static|fair|deadline|cost capacity arbitration  [fair]\n"
               "(--csv then writes the multi-study table)",
               config.arbitration);
  options.add("--catalog", "FILE",
              "node catalog file: typed node classes with prices,\n"
              "speed factors and spot markers (README \"Node\n"
              "catalogs\"); overrides --machines with its total;\n"
              "single-study runs need --substrate cluster",
              [&config](const std::string& path) {
                std::ifstream in(path);
                if (!in) {
                  throw std::invalid_argument("cannot open node catalog '" + path + "'");
                }
                config.catalog = cluster::load_node_catalog(in);
                return true;
              });
  options.bind("--budget", "USD",
               "autoscaler spend ceiling for the whole run\n"
               "(cost arbitration; default unbounded)",
               config.budget_usd);

  options.section("coordinator crash-recovery (multi-study mode; DESIGN.md \"Crash "
                  "recovery\")");
  options.bind("--checkpoint-out", "DIR",
               "write durable coordinator checkpoints into DIR\n"
               "(atomic ckpt-NNNNNN.hdck frames)",
               config.checkpoint_out);
  options.bind("--checkpoint-every", "SECONDS",
               "periodic checkpoint cadence in simulated seconds\n"
               "(0 = only the final frame)  [0]",
               config.checkpoint_every_s);
  options.bind("--resume-from", "DIR",
               "resume from the newest valid checkpoint in DIR\n"
               "(replays and byte-verifies; --study flags optional —\n"
               "the frame records the original specs)",
               config.resume_from);
  options.bind("--kill-after-checkpoints", "N",
               "testing: SIGKILL this process right after the Nth\n"
               "durable checkpoint write (CI crash-resume smoke)  [0]",
               config.kill_after_checkpoints);
  return options;
}

/// Multi-study mode: every --study file becomes a tenant of one shared
/// cluster. Each spec names its own workload/policy/generator/seed, so of
/// the single-study flags only --seed is read: it seeds the manager.
int run_studies(const CliConfig& config) {
  std::vector<core::StudySpec> specs;
  for (const auto& path : config.studies) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open study file '%s'\n", path.c_str());
      return 2;
    }
    try {
      specs.push_back(core::load_study_spec(in));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad study file '%s': %s\n", path.c_str(), e.what());
      return 2;
    }
  }

  core::StudyManagerOptions manager_options;
  manager_options.machines = config.machines;
  manager_options.catalog = config.catalog;
  manager_options.budget_usd = config.budget_usd;
  manager_options.seed = config.study.seed;
  manager_options.health.enabled = config.health;
  manager_options.fault_plan = config.fault_plan;
  try {
    manager_options.arbitration = core::arbitration_from_string(config.arbitration);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  // One shared scope: every tenant cluster publishes into the same registry
  // and sink; events carry their study name, so the merged timeline stays
  // attributable.
  obs::MetricsRegistry registry;
  obs::RecordingSink sink;
  if (!config.metrics_out.empty()) {
    cluster::preregister_cluster_metrics(registry);
    if (config.any_checkpointing()) core::preregister_checkpoint_metrics(registry);
    manager_options.obs.metrics = &registry;
  }
  if (!config.trace_out.empty()) manager_options.obs.sink = &sink;

  std::printf("multi-study: %zu studies, machines=%zu, arbitration=%s\n", specs.size(),
              config.machine_total(),
              std::string(core::to_string(manager_options.arbitration)).c_str());
  // Without checkpoint flags the recovery runtime writes nothing and only
  // steps in when a coordinator-crash fault fires: it replays from t=0.
  core::CheckpointOptions ckpt;
  ckpt.dir = config.resume_from.empty() ? config.checkpoint_out : config.resume_from;
  ckpt.every = util::SimTime::seconds(config.checkpoint_every_s);
  ckpt.resume = !config.resume_from.empty();
  ckpt.kill_after_checkpoints = config.kill_after_checkpoints;
  core::RecoverableRunResult run;
  try {
    run = core::run_recoverable_multi_study(specs, manager_options, ckpt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "multi-study run failed: %s\n", e.what());
    return 2;
  }
  const core::MultiStudyResult& result = run.result;
  const core::CoordinatorRecoveryStats& recovery = run.recovery;

  for (const auto& study : result.studies) {
    const auto& r = study.result;
    std::printf("study %-12s (%s/%s): %s%s, best=%.3f, slot-hours=%.1f "
                "grants=%zu reclaims=%zu%s%s\n",
                study.spec.name.c_str(), study.spec.workload.c_str(),
                study.spec.policy.c_str(),
                r.reached_target ? "target reached in " : "target not reached",
                r.reached_target ? util::format_duration(r.time_to_target).c_str() : "",
                r.best_perf, r.slot_seconds.to_hours(), r.lease_grants, r.lease_reclaims,
                study.spec.has_deadline()
                    ? (study.deadline_met ? ", deadline met" : ", deadline MISSED")
                    : "",
                study.cancelled ? ", cancelled" : "");
  }
  std::printf("total %s, rebalances=%zu, spend=$%.2f\n",
              util::format_duration(result.total_time).c_str(), result.rebalances,
              result.spend_usd);
  if (config.any_checkpointing() || recovery.coordinator_crashes != 0) {
    std::printf("recovery: checkpoints=%llu (%llu bytes) crashes=%llu loads=%llu "
                "fallbacks=%llu cold-restarts=%llu verified-replays=%llu\n",
                static_cast<unsigned long long>(recovery.checkpoints_written),
                static_cast<unsigned long long>(recovery.checkpoint_bytes_total),
                static_cast<unsigned long long>(recovery.coordinator_crashes),
                static_cast<unsigned long long>(recovery.checkpoint_loads),
                static_cast<unsigned long long>(recovery.checkpoint_fallbacks),
                static_cast<unsigned long long>(recovery.cold_restarts),
                static_cast<unsigned long long>(recovery.replay_verifications));
  }
  if (!config.csv.empty()) {
    std::ofstream out(config.csv);
    result.save_csv(out);
    std::printf("multi-study table written to %s\n", config.csv.c_str());
  }
  if (!config.trace_out.empty()) {
    obs::save_timeline_file(config.trace_out, sink.events);
    std::printf("timeline (%zu events) written to %s\n", sink.events.size(),
                config.trace_out.c_str());
  }
  if (!config.metrics_out.empty()) {
    registry.save_csv_file(config.metrics_out);
    std::printf("metrics snapshot written to %s\n", config.metrics_out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliConfig config;
  const cli::Options options = make_options(config);
  if (!options.parse(argc, argv)) return 2;
  if (!config.resume_from.empty() && !config.checkpoint_out.empty()) {
    std::fprintf(stderr, "--resume-from and --checkpoint-out are mutually exclusive "
                         "(resume keeps writing into its own directory)\n");
    return 2;
  }
  if (!config.studies.empty() || !config.resume_from.empty()) return run_studies(config);
  if (config.any_checkpointing()) {
    std::fprintf(stderr,
                 "--checkpoint-out/--checkpoint-every/--kill-after-checkpoints require "
                 "multi-study mode (--study or --resume-from)\n");
    return 2;
  }
  if (config.fault_plan.any() && config.substrate != "cluster") {
    std::fprintf(stderr, "fault injection requires --substrate cluster\n");
    return 2;
  }
  if (config.health && config.substrate != "cluster") {
    std::fprintf(stderr, "--health requires --substrate cluster\n");
    return 2;
  }
  if (!config.catalog.empty() && config.substrate != "cluster") {
    std::fprintf(stderr, "--catalog requires --substrate cluster\n");
    return 2;
  }
  core::ResolvedStudy study;
  try {
    study = core::resolve_study(config.study);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  const workload::Trace& base = study.trace;
  if (!config.save_trace.empty()) {
    std::ofstream out(config.save_trace);
    base.save_csv(out);
    std::printf("trace written to %s\n", config.save_trace.c_str());
  }

  std::printf("workload=%s policy=%s generator=%s machines=%zu configs=%zu "
              "substrate=%s repeats=%zu\n",
              config.study.workload.c_str(), config.study.policy.c_str(),
              config.study.generator.c_str(), config.machine_total(), config.study.configs,
              config.substrate.c_str(), config.repeats);
  if (!base.target_reachable()) {
    std::printf("note: no configuration in this set reaches the target %.3f\n",
                base.target_performance);
  }

  // Shared metrics registry: counters commute, and preregistration pins the
  // export order, so the snapshot is byte-deterministic under --jobs N.
  obs::MetricsRegistry registry;
  if (!config.metrics_out.empty()) cluster::preregister_cluster_metrics(registry);

  // Every repeat is an independent sweep cell (fresh noise, fresh policy),
  // run by core::run_sweep — in parallel under --jobs, with results
  // identical to the serial run (DESIGN.md §8).
  const std::uint64_t seed = config.study.seed;
  core::SweepSpec spec;
  spec.name = "hyperdrive_cli";
  spec.base_seed = seed;
  const auto repeat_ax = spec.add_repeat_axis(config.repeats);
  spec.run = [&](const core::SweepCell& cell) {
    const std::uint64_t r = cell.at(repeat_ax);
    workload::Trace trace = base;
    if (r > 0) {
      for (auto& job : trace.jobs) job.curve = study.model->realize(job.config, seed ^ r);
    }
    // --barrier wraps whatever the registry built, so it composes with every
    // registered policy (DESIGN.md §13).
    std::unique_ptr<core::SchedulingPolicy> policy = study.make_policy(seed ^ r);
    if (config.barrier) policy = std::make_unique<core::BarrierPolicy>(std::move(policy));
    core::RunnerOptions ropts;
    ropts.substrate = config.substrate == "cluster" ? core::Substrate::Cluster
                                                    : core::Substrate::TraceReplay;
    ropts.machines = config.machines;
    ropts.catalog = config.catalog;
    ropts.max_experiment_time = config.study.tmax;
    ropts.stop_on_target = config.stop_on_target;
    ropts.seed = seed ^ r;
    ropts.overheads = study.overheads;
    ropts.fault_plan = config.fault_plan;
    ropts.health.enabled = config.health;
    if (!config.metrics_out.empty()) ropts.obs.metrics = &registry;
    // Inert unless the policy calls clone_job (only PBT does). Seeded by the
    // clone stream, not the cell, so it stays byte-invisible to every
    // non-cloning policy.
    ropts.explore = study.explore;
    // Cell-local sink: the events land in the row's slot, so the merged
    // timeline is byte-identical across thread counts.
    obs::RecordingSink sink;
    if (!config.trace_out.empty()) ropts.obs.sink = &sink;
    core::SweepRow row = core::run_experiment(trace, *policy, ropts);
    row.events = std::move(sink.events);
    return row;
  };

  const auto table = core::run_sweep(spec, config.jobs);
  if (!config.csv.empty()) {
    table.save_csv_file(config.csv);
    std::printf("sweep table written to %s\n", config.csv.c_str());
  }
  if (!config.trace_out.empty()) {
    table.save_timeline_csv_file(config.trace_out);
    std::size_t events = 0;
    for (const auto& row : table.rows) events += row.events.size();
    std::printf("timeline (%zu events) written to %s\n", events,
                config.trace_out.c_str());
  }
  if (!config.metrics_out.empty()) {
    registry.save_csv_file(config.metrics_out);
    std::printf("metrics snapshot written to %s\n", config.metrics_out.c_str());
  }

  std::vector<double> times_min;
  for (const auto& row : table.rows) {
    const std::uint64_t r = row.cell.at(repeat_ax);
    const auto& result = row.result;
    if (result.reached_target) times_min.push_back(result.time_to_target.to_minutes());
    std::printf("repeat %llu: %s%s, best=%.3f, started=%zu terminated=%zu suspended=%zu, "
                "machine-time=%s\n",
                static_cast<unsigned long long>(r),
                result.reached_target ? "target reached in " : "target not reached",
                result.reached_target
                    ? util::format_duration(result.time_to_target).c_str()
                    : "",
                result.best_perf, result.jobs_started, result.terminations,
                result.suspends, util::format_duration(result.total_machine_time).c_str());
    if (config.fault_plan.any()) {
      const auto& rec = result.recovery;
      std::printf("  recovery: crashes=%zu restarts=%zu requeued=%zu epochs-lost=%zu "
                  "snapshots-lost=%zu restore-failures=%zu stats-lost=%zu "
                  "dup-stats-ignored=%zu\n",
                  rec.node_crashes, rec.node_restarts, rec.jobs_requeued, rec.epochs_lost,
                  rec.snapshots_lost, rec.snapshot_restore_failures, rec.stat_reports_lost,
                  rec.duplicate_stats_ignored);
    }
    if (config.health) {
      const auto& rec = result.recovery;
      std::printf("  health: migrated=%zu quarantined=%zu reinstated=%zu hung=%zu "
                  "wrong-kills=%zu\n",
                  rec.jobs_migrated, rec.nodes_quarantined, rec.nodes_reinstated,
                  rec.hung_jobs_detected, rec.wrong_kills);
    }
    if (config.verbose) {
      for (const auto& js : result.job_stats) {
        if (js.epochs_completed == 0) continue;
        std::printf("  job %4llu: %3zu epochs, %s, best %.3f\n",
                    static_cast<unsigned long long>(js.job_id), js.epochs_completed,
                    util::format_duration(js.execution_time).c_str(), js.best_perf);
      }
    }
  }
  if (times_min.size() > 1) {
    std::printf("time-to-target over %zu successful repeats: %s [min]\n", times_min.size(),
                util::to_string(util::box_stats(times_min)).c_str());
  }
  return 0;
}
