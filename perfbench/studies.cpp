// svc-studies: an in-process svc::Server over loopback TCP in front of a
// StudyService with 4 machines and max_running 2. A closed loop of two
// clients each submits a study, polls status every millisecond until the
// study ends, then fetches its result CSV. Study i is a 20-config cifar10
// study under pop (even i) or hyperband (odd i) with its own seed drawn from
// the run seed.
//
// The timed loop runs the service without a state directory. With one, the
// journal's file creation on the reference VM's shared disk set the pace:
// studies/s swung between 23 and 46 over back-to-back runs of one seed
// (README.md). The durable path runs after the timed loop instead: the first
// kDurableRounds rounds go through a durable service that checkpoints
// every 300 sim-s, their result CSVs must equal the timed loop's, and every
// frame it wrote must survive a decode/encode round trip.
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/study/checkpoint.hpp"
#include "spans.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace svc = hyperdrive::svc;
namespace util = hyperdrive::util;

constexpr std::size_t kClients = 2;
constexpr std::size_t kSetupRepeats = 15;
/// Rounds every run completes, whatever its length; sim_hours_mean is the
/// mean over their studies, so it depends on the seed alone.
constexpr std::size_t kFixedRounds = 256;
/// Rounds rerun through the durable service.
constexpr std::size_t kDurableRounds = 3;
const auto kPollInterval = std::chrono::milliseconds(1);
/// The set-up's readiness probe: the smallest study, the same every run.
const std::string kProbeSpec = "study probe\nworkload cifar10\npolicy pop\nconfigs 2\nseed 3\n";

std::string study_spec(std::uint64_t seed, std::size_t index) {
  std::ostringstream os;
  os << "study s" << index << "\nworkload cifar10\npolicy "
     << (index % 2 == 0 ? "pop" : "hyperband") << "\nconfigs 20\nseed "
     << util::derive_seed(seed, 0x57D0 + index) % 1000000007 << "\n";
  return os.str();
}

/// The service under test: memory-only when `state_dir` is empty, else
/// durable on that new directory with a checkpoint every 300 sim-s.
class Service {
 public:
  explicit Service(const std::string& state_dir = {}) {
    svc::preregister_service_metrics(registry_);
    svc::ServiceOptions options;
    options.machines = 4;
    options.state_dir = state_dir;
    options.checkpoint_every_s = 300.0;
    options.admission.max_running = 2;
    options.obs.metrics = &registry_;
    service_ = std::make_unique<svc::StudyService>(options);
    svc::ServerOptions server_options;
    server_options.metrics = &registry_;
    server_ = std::make_unique<svc::Server>(*service_, server_options);
    server_->start();
  }
  ~Service() {
    server_->request_stop();
    server_->wait_shutdown();
    service_->stop();
  }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  [[nodiscard]] std::uint16_t port() const { return server_->port(); }

 private:
  hyperdrive::obs::MetricsRegistry registry_;
  std::unique_ptr<svc::StudyService> service_;
  std::unique_ptr<svc::Server> server_;
};

std::unique_ptr<svc::Client> connect(std::uint16_t port) {
  svc::ClientOptions options;
  options.port = port;
  auto client = std::make_unique<svc::Client>(options);
  (void)client->list("perfbench");  // opens the connection
  return client;
}

struct StudyRecord {
  bool done = false;
  std::string problem;  ///< non-empty: the submission failed
  double sim_hours = 0.0;
  std::string result_csv;
};

/// Both containers grow without moving their elements.
struct Phase {
  std::deque<StudyRecord> studies;  ///< by study index
  std::deque<double> round_ms;      ///< by round: study 2r (pop), then 2r+1 (hyperband)
  double wall_s = 0.0;
  /// Peak resident set when the first `min_rounds` rounds were done. The
  /// service keeps every finished study, so the peak at the end of the run
  /// grows with the rounds completed, that is with the machine's speed.
  double fixed_rss_mb = 0.0;
};

/// One client's submit -> poll -> fetch cycle for study `index`.
void run_study(svc::Client& client, const std::string& tenant, const std::string& spec,
               bool traced, StudyRecord& rec) {
  std::optional<ScopedSpan> cell;
  if (traced) cell.emplace(Layer::Cell);
  const auto timed_call = [&](Layer layer, auto&& call) {
    if (!traced) return call();
    ScopedSpan span(layer);
    return call();
  };
  const svc::Message submitted =
      timed_call(Layer::Submit, [&] { return client.submit(tenant, spec); });
  if (submitted.type != svc::MsgType::Submitted) {
    rec.problem = "submission rejected: " + submitted.text;
  } else {
    svc::Message status;
    for (;;) {
      status = timed_call(Layer::Status, [&] { return client.status(submitted.id); });
      if (status.type != svc::MsgType::StatusInfo ||
          (status.info.state != svc::StudyState::Queued &&
           status.info.state != svc::StudyState::Running)) {
        break;
      }
      std::this_thread::sleep_for(kPollInterval);
    }
    if (status.type != svc::MsgType::StatusInfo) {
      rec.problem = "status failed: " + status.text;
    } else if (status.info.state != svc::StudyState::Finished) {
      rec.problem = std::string("ended ") + svc::to_string(status.info.state) + ": " +
                    status.info.detail;
    } else {
      const svc::Message artifact = timed_call(
          Layer::Fetch, [&] { return client.fetch(submitted.id, svc::ArtifactKind::ResultCsv); });
      if (artifact.type != svc::MsgType::Artifact || artifact.text.empty()) {
        rec.problem = "fetch failed: " + artifact.text;
      } else {
        rec.result_csv = artifact.text;
        rec.sim_hours = status.info.total_time_s / 3600.0;
      }
    }
  }
  cell.reset();
  rec.done = true;
}

/// Closed loop in rounds: a client takes the next round r and runs study 2r
/// (pop), then study 2r+1 (hyperband). Rounds are handed out until
/// `budget_s` is spent and at least `min_rounds` were taken, or until
/// `max_rounds`.
Phase run_phase(const std::vector<std::unique_ptr<svc::Client>>& clients, std::uint64_t seed,
                bool traced, double budget_s, std::size_t min_rounds, std::size_t max_rounds) {
  struct Round {
    std::size_t first_study = 0;
    StudyRecord* studies[2] = {nullptr, nullptr};
    double* ms = nullptr;  ///< null: the loop is over
  };
  Phase phase;
  std::mutex mutex;  // guards the growth of phase.studies and phase.round_ms, and fixed_done
  std::size_t fixed_done = 0;  ///< rounds among the first min_rounds that are done
  const auto start = Clock::now();
  const auto take = [&]() -> Round {
    std::lock_guard<std::mutex> lock(mutex);
    const std::size_t r = phase.round_ms.size();
    if (r >= max_rounds ||
        (r >= min_rounds && ms_between(start, Clock::now()) >= 1000.0 * budget_s)) {
      return {};
    }
    Round round;
    round.first_study = phase.studies.size();
    round.studies[0] = &phase.studies.emplace_back();
    round.studies[1] = &phase.studies.emplace_back();
    round.ms = &phase.round_ms.emplace_back(0.0);
    return round;
  };
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < clients.size(); ++k) {
    threads.emplace_back([&, k] {
      const std::string tenant = "tenant-" + std::to_string(k);
      for (Round round = take(); round.ms != nullptr; round = take()) {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < 2; ++i) {
          const std::size_t index = round.first_study + i;
          StudyRecord& rec = *round.studies[i];
          span_unit(static_cast<std::uint32_t>(index));
          try {
            run_study(*clients[k], tenant, study_spec(seed, index), traced, rec);
          } catch (const std::exception& e) {
            rec.problem = e.what();
            rec.done = true;
          }
        }
        *round.ms = ms_between(t0, Clock::now());
        if (round.first_study / 2 < min_rounds) {
          std::lock_guard<std::mutex> lock(mutex);
          if (++fixed_done == min_rounds) phase.fixed_rss_mb = peak_rss_mb();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  phase.wall_s = ms_between(start, Clock::now()) / 1000.0;
  return phase;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

struct CheckpointStats {
  std::size_t frames = 0;
  double bytes = 0.0;
  std::size_t mismatches = 0;
};

/// Decode every frame the service wrote and re-encode it, each call in a
/// span; round trips must be byte-equal.
CheckpointStats round_trip_frames(const std::string& state_dir) {
  CheckpointStats stats;
  for (const auto& entry : fs::recursive_directory_iterator(state_dir)) {
    const std::string name = entry.path().filename().string();
    if (!entry.is_regular_file() || name.rfind("ckpt-", 0) != 0 ||
        entry.path().extension() != ".hdck") {
      continue;
    }
    const std::string text = read_file(entry.path());
    const std::vector<std::uint8_t> image(text.begin(), text.end());
    hyperdrive::core::CheckpointDecodeResult decoded;
    {
      ScopedSpan span(Layer::Decode);
      decoded = hyperdrive::core::decode_checkpoint(image);
    }
    ++stats.frames;
    stats.bytes += static_cast<double>(image.size());
    if (!decoded.checkpoint) {
      ++stats.mismatches;
      continue;
    }
    std::vector<std::uint8_t> encoded;
    {
      ScopedSpan span(Layer::Encode);
      encoded = hyperdrive::core::encode_checkpoint(*decoded.checkpoint);
    }
    if (encoded != image) ++stats.mismatches;
  }
  return stats;
}

/// Mean of the server's svc.queue_wait_ms histogram, read through a Metrics
/// request.
double queue_wait_mean_ms(svc::Client& client, std::size_t& samples) {
  const svc::Message reply = client.metrics();
  std::istringstream in(reply.text);
  std::string line;
  double count = 0.0, sum = 0.0;
  while (std::getline(in, line)) {
    const auto value = [&] { return std::strtod(line.c_str() + line.rfind(',') + 1, nullptr); };
    if (line.rfind("svc.queue_wait_ms.count,", 0) == 0) count = value();
    if (line.rfind("svc.queue_wait_ms.sum,", 0) == 0) sum = value();
  }
  samples = static_cast<std::size_t>(count);
  return count > 0 ? sum / count : 0.0;
}

/// Counts failed submissions and reports the first few problems.
std::size_t check_phase(const Phase& phase, Report& report) {
  std::size_t failed = 0;
  for (std::size_t i = 0; i < phase.studies.size(); ++i) {
    const StudyRecord& rec = phase.studies[i];
    if (rec.done && rec.problem.empty()) continue;
    if (++failed <= 5) {
      report.fail("study " + std::to_string(i) + ": " +
                  (rec.problem.empty() ? "never finished" : rec.problem));
    }
  }
  return failed;
}

/// Run the first kDurableRounds rounds through a durable service; their
/// result CSVs must equal `timed`'s, and its checkpoint frames must
/// round-trip.
CheckpointStats check_durable(const Options& options, const Phase& timed, Report& report) {
  // A new directory, kept afterwards: deleting journals slowed the next run's
  // file creation on the reference VM for about a minute.
  const std::string base = options.work_dir + "/svc-" + std::to_string(::getpid());
  std::string state_dir = base;
  for (int k = 1; fs::exists(state_dir); ++k) state_dir = base + "-" + std::to_string(k);
  std::vector<std::unique_ptr<svc::Client>> clients;
  Phase durable;
  {
    Service service(state_dir);
    for (std::size_t c = 0; c < kClients; ++c) clients.push_back(connect(service.port()));
    durable = run_phase(clients, options.seed, false, 0.0, kDurableRounds, kDurableRounds);
    clients.clear();
  }
  report.attempted += durable.studies.size();
  report.failed += check_phase(durable, report);
  for (std::size_t i = 0; i < durable.studies.size(); ++i) {
    if (durable.studies[i].result_csv != timed.studies[i].result_csv) {
      report.fail("study " + std::to_string(i) + ": durable service result CSV differs");
    }
  }
  const CheckpointStats ckpt = round_trip_frames(state_dir);
  if (ckpt.frames == 0) report.fail("the durable service wrote no checkpoint frames");
  if (ckpt.mismatches > 0) {
    report.fail(std::to_string(ckpt.mismatches) + " checkpoint frames did not round-trip");
  }
  return ckpt;
}

}  // namespace

void run_studies_workload(const Options& options, Report& report) {
  // Set-up: start the service, connect the clients, and run one probe study
  // through it, several times; the last instance serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<Service> service;
  std::vector<std::unique_ptr<svc::Client>> clients;
  for (std::size_t k = 0; k < kSetupRepeats; ++k) {
    clients.clear();
    service.reset();
    const auto t0 = Clock::now();
    service = std::make_unique<Service>();
    for (std::size_t c = 0; c < kClients; ++c) clients.push_back(connect(service->port()));
    StudyRecord probe;
    run_study(*clients.front(), "probe", kProbeSpec, /*traced=*/false, probe);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    if (!probe.problem.empty()) report.fail("probe study: " + probe.problem);
  }

  if (!options.trace) {
    const Phase phase =
        run_phase(clients, options.seed, false, options.seconds, kFixedRounds, SIZE_MAX);
    clients.clear();
    service.reset();
    report.attempted = phase.studies.size();
    report.failed = check_phase(phase, report);
    (void)check_durable(options, phase, report);

    std::vector<double> round_ms, sim_hours;
    for (std::size_t r = 0; r < phase.round_ms.size(); ++r) {
      if (phase.studies[2 * r].problem.empty() && phase.studies[2 * r + 1].problem.empty()) {
        round_ms.push_back(phase.round_ms[r]);
      }
    }
    for (std::size_t i = 0; i < 2 * kFixedRounds; ++i) {
      if (phase.studies[i].problem.empty()) sim_hours.push_back(phase.studies[i].sim_hours);
    }
    report.set("units_per_s", static_cast<double>(phase.round_ms.size()) / phase.wall_s,
               phase.round_ms.size());
    report.set("unit_ms_mean", mean(round_ms), round_ms.size());
    report.set("unit_ms_p90", quantile(round_ms, 0.9), round_ms.size());
    report.set("sim_hours_mean", mean(sim_hours), sim_hours.size());
    report.set("peak_rss_mb", phase.fixed_rss_mb, 1);
    report.set("setup_s", quantile(setup_s, 0.5), setup_s.size());
    return;
  }

  // Traced run: studies untraced for half the time, then the same studies
  // traced.
  const Phase untraced =
      run_phase(clients, options.seed, false, options.seconds / 2, kFixedRounds, SIZE_MAX);
  const std::size_t rounds = untraced.round_ms.size();
  const std::size_t studies = untraced.studies.size();
  const Phase traced = run_phase(clients, options.seed, true, 0.0, rounds, rounds);
  std::size_t wait_samples = 0;
  const double wait_ms = queue_wait_mean_ms(*clients.front(), wait_samples);
  clients.clear();
  service.reset();
  report.attempted = untraced.studies.size() + traced.studies.size();
  report.failed = check_phase(untraced, report) + check_phase(traced, report);
  for (std::size_t i = 0; i < studies; ++i) {
    if (traced.studies[i].result_csv != untraced.studies[i].result_csv) {
      report.fail("study " + std::to_string(i) + ": traced result CSV differs");
      break;
    }
  }
  const CheckpointStats ckpt = check_durable(options, untraced, report);

  const Recording recording = take_recording();
  write_spans_csv(options.work_dir + "/spans-svc-studies.csv", recording);
  const LayerStats& submit = recording.at(Layer::Submit);
  const LayerStats& status = recording.at(Layer::Status);
  const LayerStats& fetch = recording.at(Layer::Fetch);
  const LayerStats& encode = recording.at(Layer::Encode);
  const LayerStats& decode = recording.at(Layer::Decode);
  report.set("ckpt.frames", static_cast<double>(ckpt.frames) / (2 * kDurableRounds),
             2 * kDurableRounds);
  report.set("ckpt.bytes_per_frame", ckpt.frames > 0 ? ckpt.bytes / ckpt.frames : 0.0,
             ckpt.frames);
  report.set("ckpt.encode_us_p50", encode.quantile_us(0.5), encode.count());
  report.set("ckpt.decode_us_p50", decode.quantile_us(0.5), decode.count());
  report.set("svc.submit_ms_p50", submit.quantile_us(0.5) / 1000.0, submit.count());
  report.set("svc.submit_ms_p90", submit.quantile_us(0.9) / 1000.0, submit.count());
  report.set("svc.status_ms_p50", status.quantile_us(0.5) / 1000.0, status.count());
  report.set("svc.fetch_ms_p50", fetch.quantile_us(0.5) / 1000.0, fetch.count());
  report.set("svc.polls_per_study",
             static_cast<double>(status.count()) / static_cast<double>(studies), studies);
  report.set("svc.queue_wait_ms_mean", wait_ms, wait_samples);
  report.set("sweep.busy_frac",
             recording.at(Layer::Cell).total_ms() / (1000.0 * traced.wall_s * kClients),
             studies);
  report.set("trace.overhead_frac", traced.wall_s / untraced.wall_s - 1.0, studies);
}

}  // namespace perfbench
