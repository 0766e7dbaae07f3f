// Sweep workloads. A cell is one core::run_experiment on the cluster
// substrate with CIFAR overheads. Cells run through one core::run_sweep on
// `workers` threads; cells dispatched after the run's time is spent are
// skipped.
//
// Untraced cells call exactly what the program's benches call
// (core::make_standard_policy, or the registry with core::make_predictor for
// MCMC). Traced cells rebuild the same predictor chain around the timing
// wrappers of timed.hpp. The traced run executes the same cells both ways and
// requires byte-identical sweep tables and equal warm-start hit counts.
#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <sched.h>

#include "core/experiment_runner.hpp"
#include "core/policy_registry.hpp"
#include "core/sweep_engine.hpp"
#include "curve/caching_predictor.hpp"
#include "obs/sink.hpp"
#include "spans.hpp"
#include "timed.hpp"
#include "util/rng.hpp"
#include "workload/cifar_model.hpp"
#include "workload/trace_tools.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = hyperdrive::core;
namespace curve = hyperdrive::curve;
namespace util = hyperdrive::util;
namespace wl = hyperdrive::workload;

struct SweepWorkload {
  const char* name;
  std::vector<std::string> policies;  ///< cell i runs policies[i % size]
  std::size_t configs;
  std::size_t machines;
  bool stop_on_target;
  bool faults;  ///< 5% message drop, one crash + restart, 10% snapshot-upload failure
  bool mcmc;    ///< MCMC predictor at the paper setting instead of LSQ
  /// Cells every run completes, however short; sim_hours_mean is their mean,
  /// so that metric depends on the seed alone.
  std::size_t min_cells;
};

const SweepWorkload kSweeps[] = {
    {"pop-lsq", {"pop", "earlyterm"}, 100, 4, true, false, false, 32},
    // asha-faults and pop-mcmc run by hand only: too unsteady for
    // BENCHMARK.json (README.md).
    {"asha-faults", {"asha"}, 400, 16, false, true, false, 16},
    {"pop-mcmc", {"pop", "earlyterm"}, 100, 4, true, false, true, 8},
};

const util::SimTime kTmax = util::SimTime::hours(96);
/// The hyperparameter set every cell re-realizes: fig07's suitable_trace seed.
/// As in the paper's repeats (§6.1) it is fixed; the run seed draws each
/// cell's training noise, cluster seed, policy seed and fault plan.
constexpr std::uint64_t kBaseTraceSeed = 2202;
/// A set-up window repeats the set-up for at least this long, an equal share
/// of it on each CPU in turn, and at least kMinSetupRepeats times per CPU. A
/// set-up takes 1 to 6 ms. On a shared host each CPU runs at its own speed
/// for seconds at a time: the speed one thread saw moved setup_s by 50 %
/// between runs, even with 51 back-to-back set-ups.
constexpr double kSetupWindowS = 1.0;
constexpr std::size_t kMinSetupRepeats = 10;
/// Upper bound on the cells of one run.
constexpr std::size_t kMaxCells = 8192;
/// Output-check failures printed per run; the rest are only counted.
constexpr std::size_t kMaxReportedFailures = 5;

core::PredictorOptions predictor_options(const SweepWorkload& w) {
  core::PredictorOptions options;  // make_default_predictor's chain: LSQ, 512-entry cache
  options.config.lsq_samples = 200;
  if (w.mcmc) {
    options.kind = core::PredictorOptions::Kind::Mcmc;
    options.config.mcmc.nwalkers = 100;
    options.config.mcmc.nsamples = 700;
  }
  return options;
}

/// A run's inputs: the fixed base trace, and per cell everything drawn from
/// the run seed. The program sees only these.
class SweepInputs {
 public:
  SweepInputs(const SweepWorkload& w, std::uint64_t seed)
      : workload(w),
        seed(seed),
        base(wl::suitable_trace(model, w.configs, kBaseTraceSeed, w.machines)) {}

  const SweepWorkload& workload;
  const std::uint64_t seed;
  wl::CifarWorkloadModel model;
  const wl::Trace base;

  [[nodiscard]] const std::string& policy(std::size_t cell) const {
    return workload.policies[cell % workload.policies.size()];
  }
  [[nodiscard]] std::uint64_t stream(std::size_t cell, std::uint64_t which) const {
    return util::derive_seed(util::derive_seed(seed, cell), which);
  }
  [[nodiscard]] wl::Trace realize(std::size_t cell) const {
    return wl::renoise(model, base, stream(cell, 0));
  }
  [[nodiscard]] std::uint64_t policy_seed(std::size_t cell) const { return stream(cell, 1); }

  [[nodiscard]] core::RunnerOptions runner(std::size_t cell) const {
    core::RunnerOptions options;
    options.substrate = core::Substrate::Cluster;
    options.machines = workload.machines;
    options.overheads = hyperdrive::cluster::cifar_overhead_model();
    options.max_experiment_time = kTmax;
    options.stop_on_target = workload.stop_on_target;
    options.seed = stream(cell, 2);
    if (workload.faults) {
      auto& plan = options.fault_plan;
      plan.seed = stream(cell, 3);
      hyperdrive::cluster::MessageFaultProfile drops;
      drops.drop_prob = 0.05;
      plan.set_uniform_message_faults(drops);
      plan.snapshot_upload_fail_prob = 0.10;
      hyperdrive::cluster::NodeCrashEvent crash;
      // A fixed machine, as in ext_fault_tolerance: which machine crashes
      // splits cell times into two modes about 40 % apart.
      crash.machine = 2;
      crash.at = util::SimTime::hours(2);
      crash.restart_after = util::SimTime::minutes(30);
      plan.crashes.push_back(crash);
    }
    return options;
  }
};

/// One set-up window: realizes the base traces again and again, pinned to
/// each CPU this process may use in turn, and appends each CPU's mean set-up
/// time to `slices`. Returns the last copy. The thread gets its CPU mask
/// back, so that threads it starts later inherit the whole mask.
std::unique_ptr<SweepInputs> timed_setup(const SweepWorkload& w, std::uint64_t seed,
                                         std::vector<double>& slices) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) CPU_ZERO(&allowed);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.empty()) cpus.push_back(-1);  // mask unknown: stay where the thread is
  std::unique_ptr<SweepInputs> inputs;
  for (const int cpu : cpus) {
    if (cpu >= 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      (void)sched_setaffinity(0, sizeof one, &one);
    }
    std::vector<double> times;
    const auto start = Clock::now();
    while (times.size() < kMinSetupRepeats ||
           ms_between(start, Clock::now()) < 1000.0 * kSetupWindowS / cpus.size()) {
      const auto t0 = Clock::now();
      inputs = std::make_unique<SweepInputs>(w, seed);
      times.push_back(ms_between(t0, Clock::now()) / 1000.0);
    }
    slices.push_back(mean(times));
  }
  if (cpus.front() >= 0) (void)sched_setaffinity(0, sizeof allowed, &allowed);
  return inputs;
}

struct CellRecord {
  double cell_ms = 0.0;
  std::size_t warm_hits = 0;
  std::size_t events = 0;
  bool skipped = false;  ///< dispatched after the run's time was spent
  std::string error;     ///< non-empty when the cell threw
};

/// The program's own construction path.
core::ExperimentResult program_cell(const SweepInputs& in, std::size_t i, CellRecord& rec) {
  const auto t0 = Clock::now();
  const wl::Trace trace = in.realize(i);
  std::shared_ptr<const curve::CurvePredictor> predictor;
  std::unique_ptr<core::SchedulingPolicy> policy;
  if (in.workload.mcmc) {
    core::PolicyContext ctx;
    ctx.seed = in.policy_seed(i);
    ctx.tmax = kTmax;
    ctx.predictor = predictor = core::make_predictor(predictor_options(in.workload), ctx.seed);
    policy = core::make_registry_policy(in.policy(i), {}, ctx);
  } else {
    policy = core::make_standard_policy(in.policy(i), in.policy_seed(i), kTmax);
  }
  core::ExperimentResult result = core::run_experiment(trace, *policy, in.runner(i));
  rec.cell_ms = ms_between(t0, Clock::now());
  if (const auto cache = std::dynamic_pointer_cast<const curve::CachingPredictor>(predictor)) {
    rec.warm_hits = cache->warm_hits();
  }
  return result;
}

/// The same cell with every layer boundary timed from outside.
core::ExperimentResult traced_cell(const SweepInputs& in, std::size_t i, CellRecord& rec) {
  span_unit(static_cast<std::uint32_t>(i));
  const auto t0 = Clock::now();
  ScopedSpan cell_span(Layer::Cell);
  wl::Trace trace;
  {
    ScopedSpan span(Layer::Realize);
    trace = in.realize(i);
  }
  const core::PredictorOptions popts = predictor_options(in.workload);
  curve::PredictorConfig config = popts.config;
  config.seed = in.policy_seed(i);
  std::shared_ptr<const curve::CurvePredictor> inner =
      in.workload.mcmc ? curve::make_mcmc_predictor(config) : curve::make_lsq_predictor(config);
  const auto cache =
      std::make_shared<curve::CachingPredictor>(timed(std::move(inner), Layer::Fit), popts.cache);
  core::PolicyContext ctx;
  ctx.seed = config.seed;
  ctx.tmax = kTmax;
  ctx.predictor = timed(cache, Layer::Predict);
  TimedPolicy policy(core::make_registry_policy(in.policy(i), {}, ctx));
  core::RunnerOptions options = in.runner(i);
  hyperdrive::obs::RecordingSink sink;
  options.obs.sink = &sink;
  core::ExperimentResult result;
  {
    ScopedSpan span(Layer::Run);
    result = core::run_experiment(trace, policy, options);
  }
  rec.cell_ms = ms_between(t0, Clock::now());
  rec.warm_hits = cache->warm_hits();
  rec.events = sink.events.size();
  return result;
}

struct Pass {
  std::string csv;  ///< sweep table of the completed cells
  std::vector<core::ExperimentResult> results;  ///< completed cells, in cell order
  std::vector<CellRecord> records;
  double wall_s = 0.0;
  /// Peak resident set when the first `min_cells` cells were done. The sweep
  /// table keeps every result, so the peak at the end of the run grows with
  /// the cells completed, that is with the machine's speed.
  double fixed_rss_mb = 0.0;
};

/// One run_sweep over cells [0, cells). A cell dispatched after `budget_s` is
/// skipped unless it is among the first `min_cells`. The engine dispatches
/// cells in index order, so the completed cells form a prefix; a cell that
/// won a race past a skipped one is dropped from the pass.
Pass run_pass(const SweepInputs& in, const Options& options, bool traced, double budget_s,
              std::size_t min_cells, std::size_t cells) {
  core::SweepSpec spec;
  spec.name = in.workload.name;
  spec.base_seed = in.seed;
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < cells; ++i) labels.push_back(std::to_string(i));
  spec.add_axis("cell", labels);
  std::vector<CellRecord> records(cells);
  std::atomic<std::size_t> fixed_done{0};  // cells among the first min_cells that are done
  double fixed_rss_mb = 0.0;
  const auto start = Clock::now();
  spec.run = [&](const core::SweepCell& cell) {
    CellRecord& rec = records[cell.linear];
    if (cell.linear >= min_cells && ms_between(start, Clock::now()) >= 1000.0 * budget_s) {
      rec.skipped = true;
      return core::ExperimentResult{};
    }
    core::ExperimentResult result;
    try {
      result = traced ? traced_cell(in, cell.linear, rec) : program_cell(in, cell.linear, rec);
    } catch (const std::exception& e) {
      rec.error = e.what();
    }
    if (cell.linear < min_cells && ++fixed_done == min_cells) fixed_rss_mb = peak_rss_mb();
    return result;
  };
  core::SweepTable table = core::run_sweep(spec, options.workers);
  const auto done = static_cast<std::size_t>(
      std::find_if(records.begin(), records.end(), [](const CellRecord& r) { return r.skipped; }) -
      records.begin());
  table.rows.resize(done);
  records.resize(done);
  Pass pass;
  pass.csv = table.to_csv();
  for (auto& row : table.rows) pass.results.push_back(std::move(row.result));
  pass.records = std::move(records);
  pass.wall_s = table.wall_seconds;
  pass.fixed_rss_mb = fixed_rss_mb;
  return pass;
}

/// Output checks on every cell; returns the number of failed cells.
std::size_t check_cells(const SweepInputs& in, const Pass& pass, Report& report) {
  std::size_t failed = 0;
  for (std::size_t i = 0; i < pass.results.size(); ++i) {
    const core::ExperimentResult& r = pass.results[i];
    std::string problem = pass.records[i].error;
    if (problem.empty()) {
      if (r.policy_name != in.policy(i)) {
        problem = "ran policy '" + r.policy_name + "'";
      } else if (r.jobs_started == 0 || r.total_time <= util::SimTime::zero() ||
                 r.total_time > kTmax) {
        problem = "empty or overlong experiment";
      } else if (r.reached_target && r.time_to_target > r.total_time) {
        problem = "target reached after the experiment ended";
      } else if (in.workload.faults &&
                 (r.retransmissions == 0 || r.recovery.node_crashes != 1 ||
                  r.recovery.node_restarts != 1)) {
        problem = "fault plan was not exercised";
      }
    }
    if (problem.empty()) continue;
    if (++failed <= kMaxReportedFailures) {
      report.fail(std::string(in.workload.name) + " cell " + std::to_string(i) + ": " + problem);
    }
  }
  return failed;
}

std::vector<double> collect(const std::vector<CellRecord>& records, double CellRecord::*field) {
  std::vector<double> out;
  for (const auto& rec : records) {
    if (rec.error.empty()) out.push_back(rec.*field);
  }
  return out;
}

void report_layers(const SweepInputs& in, const Options& options, const Pass& untraced,
                   const Pass& traced, Report& report) {
  const Recording recording = take_recording();
  write_spans_csv(options.work_dir + "/spans-" + in.workload.name + ".csv", recording);
  const std::size_t cells = traced.results.size();
  const double n = static_cast<double>(cells);
  const double cell_ms = recording.at(Layer::Cell).total_ms();
  const LayerStats& realize = recording.at(Layer::Realize);
  const LayerStats& predict = recording.at(Layer::Predict);
  const LayerStats& fit = recording.at(Layer::Fit);
  const LayerStats& upcall = recording.at(Layer::Upcall);
  const LayerStats& run = recording.at(Layer::Run);

  report.set("workload.realize_calls", realize.count() / n, cells);
  report.set("workload.realize_ms", realize.total_ms() / n, realize.count());
  report.set("workload.realize_share", realize.total_ms() / cell_ms, realize.count());
  report.set("predictor.calls", predict.count() / n, cells);
  report.set("predictor.fits", fit.count() / n, cells);
  report.set("predictor.hit_ratio",
             predict.count() > 0
                 ? 1.0 - static_cast<double>(fit.count()) / static_cast<double>(predict.count())
                 : 0.0,
             predict.count());
  report.set("predictor.fit_ms", fit.total_ms() / n, fit.count());
  report.set("predictor.fit_share", fit.total_ms() / cell_ms, fit.count());
  report.set("predictor.fit_us_p50", fit.quantile_us(0.5), fit.count());
  report.set("predictor.fit_us_p90", fit.quantile_us(0.9), fit.count());
  double warm = 0.0, events = 0.0;
  for (const auto& rec : traced.records) {
    warm += static_cast<double>(rec.warm_hits);
    events += static_cast<double>(rec.events);
  }
  report.set("predictor.warm_hits", warm / n, cells);
  report.set("policy.upcalls", upcall.count() / n, cells);
  report.set("policy.self_ms", upcall.self_ms() / n, upcall.count());
  report.set("policy.self_share", upcall.self_ms() / cell_ms, upcall.count());
  report.set("policy.upcall_us_p50", upcall.quantile_us(0.5), upcall.count());
  report.set("policy.upcall_us_p99", upcall.quantile_us(0.99), upcall.count());
  report.set("substrate.self_ms", run.self_ms() / n, run.count());
  report.set("substrate.self_share", run.self_ms() / cell_ms, run.count());
  report.set("sim.events", events / n, cells);
  report.set("sim.events_per_s", events / (run.total_ms() / 1000.0), run.count());

  const auto per_cell = [&](auto field) {
    double sum = 0.0;
    for (const auto& r : traced.results) sum += static_cast<double>(field(r));
    return sum / n;
  };
  using R = core::ExperimentResult;
  report.set("cluster.jobs_started", per_cell([](const R& r) { return r.jobs_started; }), cells);
  report.set("cluster.suspends", per_cell([](const R& r) { return r.suspends; }), cells);
  report.set("cluster.retransmissions",
             per_cell([](const R& r) { return r.retransmissions; }), cells);
  report.set("cluster.jobs_requeued",
             per_cell([](const R& r) { return r.recovery.jobs_requeued; }), cells);
  report.set("cluster.epochs_lost",
             per_cell([](const R& r) { return r.recovery.epochs_lost; }), cells);
  report.set("sweep.busy_frac",
             cell_ms / (1000.0 * traced.wall_s * static_cast<double>(options.workers)), cells);
  report.set("trace.overhead_frac", traced.wall_s / untraced.wall_s - 1.0, cells);
}

}  // namespace

bool is_sweep_workload(const std::string& name) {
  return std::any_of(std::begin(kSweeps), std::end(kSweeps),
                     [&](const SweepWorkload& w) { return name == w.name; });
}

void run_sweep_workload(const Options& options, Report& report) {
  const SweepWorkload& w = *std::find_if(std::begin(kSweeps), std::end(kSweeps),
                                         [&](const SweepWorkload& s) {
                                           return options.workload == s.name;
                                         });

  // Set-up: one window before the cells, whose last copy the cells use.
  std::vector<double> setup_s;  ///< per CPU and window: mean set-up time
  const std::unique_ptr<SweepInputs> inputs = timed_setup(w, options.seed, setup_s);
  const SweepInputs& in = *inputs;

  if (!options.trace) {
    const Pass pass = run_pass(in, options, /*traced=*/false, options.seconds, w.min_cells,
                               kMaxCells);
    report.attempted = pass.results.size();
    report.failed = check_cells(in, pass, report);

    // Determinism: the fastest completed cell again, alone and serially, must
    // reproduce its result.
    const auto cell_ms = collect(pass.records, &CellRecord::cell_ms);
    const auto again_cell = static_cast<std::size_t>(
        std::min_element(pass.records.begin(), pass.records.end(),
                         [](const CellRecord& a, const CellRecord& b) {
                           return a.cell_ms < b.cell_ms;
                         }) -
        pass.records.begin());
    core::SweepSpec again;
    again.name = w.name;
    again.base_seed = in.seed;
    again.add_axis("cell", {std::to_string(again_cell)});
    CellRecord rec;
    again.run = [&](const core::SweepCell&) { return program_cell(in, again_cell, rec); };
    core::SweepTable rerun = core::run_sweep(again, 1);
    const std::string rerun_csv = rerun.to_csv();
    rerun.rows.front().result = pass.results[again_cell];
    ++report.attempted;
    if (rerun.to_csv() != rerun_csv) {
      ++report.failed;
      report.fail("cell " + std::to_string(again_cell) + " rerun serially differs");
    }

    std::vector<double> sim_hours;
    for (std::size_t i = 0; i < w.min_cells; ++i) {
      sim_hours.push_back(pass.results[i].total_time.to_hours());
    }
    report.set("units_per_s", static_cast<double>(pass.results.size()) / pass.wall_s,
               pass.results.size());
    report.set("unit_ms_mean", mean(cell_ms), cell_ms.size());
    report.set("unit_ms_p90", quantile(cell_ms, 0.9), cell_ms.size());
    report.set("sim_hours_mean", mean(sim_hours), sim_hours.size());
    report.set("peak_rss_mb", pass.fixed_rss_mb, 1);
    // A second window after the cells: the host's speed also drifts over
    // tens of seconds.
    (void)timed_setup(w, options.seed, setup_s);
    report.set("setup_s", quantile(setup_s, 0.5), setup_s.size());
    return;
  }

  // Traced run: cells untraced for half the time, then the same cells traced.
  const Pass untraced =
      run_pass(in, options, /*traced=*/false, options.seconds / 2, w.min_cells, kMaxCells);
  const std::size_t cells = untraced.results.size();
  const Pass traced = run_pass(in, options, /*traced=*/true,
                               std::numeric_limits<double>::infinity(), cells, cells);
  report.attempted = untraced.results.size() + traced.results.size();
  report.failed = check_cells(in, untraced, report) + check_cells(in, traced, report);
  if (untraced.csv != traced.csv) report.fail("traced sweep table differs from untraced");
  for (std::size_t i = 0; i < cells; ++i) {
    if (untraced.records[i].warm_hits != traced.records[i].warm_hits) {
      report.fail("cell " + std::to_string(i) + ": warm_hits " +
                  std::to_string(traced.records[i].warm_hits) + " traced vs " +
                  std::to_string(untraced.records[i].warm_hits) + " untraced");
      break;
    }
  }
  report_layers(in, options, untraced, traced, report);
}

}  // namespace perfbench
