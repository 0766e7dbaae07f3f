#include "svc/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/study/checkpoint.hpp"
#include "core/study/coordinator.hpp"
#include "core/study/study_manager.hpp"
#include "obs/export.hpp"
#include "obs/sink.hpp"
#include "util/atomic_file.hpp"
#include "util/cli_options.hpp"

namespace hyperdrive::svc {

namespace fs = std::filesystem;

namespace {

/// Joins its thread (if any) on scope exit.
struct JoinOnExit {
  JoinOnExit() = default;
  JoinOnExit(const JoinOnExit&) = delete;
  JoinOnExit& operator=(const JoinOnExit&) = delete;
  ~JoinOnExit() {
    if (thread.joinable()) thread.join();
  }

  std::thread thread;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool parse_state(const std::string& text, StudyState& out) {
  for (const StudyState s : {StudyState::Queued, StudyState::Running, StudyState::Finished,
                             StudyState::Cancelled, StudyState::Failed}) {
    if (text == to_string(s)) {
      out = s;
      return true;
    }
  }
  return false;
}

std::string one_line(std::string text) {
  for (char& c : text) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

bool has_checkpoint_frames(const std::string& dir) {
  std::error_code ec;
  return fs::is_directory(dir, ec) && !core::CheckpointStore(dir).list().empty();
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void preregister_service_metrics(obs::MetricsRegistry& registry) {
  for (const char* name :
       {"svc.submissions", "svc.admitted", "svc.queued", "svc.rejected", "svc.cancelled",
        "svc.completed", "svc.failed", "svc.resumed", "svc.connections",
        "svc.connections_dropped", "svc.frames_rx", "svc.frames_tx", "svc.decode_errors",
        "svc.bytes_rx", "svc.bytes_tx"}) {
    (void)registry.counter(name);
  }
  (void)registry.histogram("svc.queue_wait_ms", {1.0, 10.0, 100.0, 1000.0, 10000.0});
}

StudyService::StudyService(ServiceOptions options)
    : options_(std::move(options)), admission_(options_.admission) {
  if (!options_.state_dir.empty()) {
    fs::create_directories(options_.state_dir);
    resume_scan();
  }
}

StudyService::~StudyService() { stop(); }

void StudyService::bump(const char* name) const {
  if (options_.obs.metrics != nullptr) options_.obs.metrics->counter(name).add();
}

std::string StudyService::sub_dir(std::uint64_t id) const {
  return options_.state_dir + "/sub-" + std::to_string(id);
}

void StudyService::write_meta_locked(const Submission& sub) const {
  if (options_.state_dir.empty()) return;
  std::ostringstream os;
  os << "tenant " << sub.tenant << "\n";
  os << "state " << to_string(sub.state) << "\n";
  if (!sub.detail.empty()) os << "detail " << one_line(sub.detail) << "\n";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", sub.best_perf);
  os << "best " << buf << "\n";
  os << "reached " << (sub.reached_target ? 1 : 0) << "\n";
  std::snprintf(buf, sizeof buf, "%.17g", sub.time_to_target_s);
  os << "ttt " << buf << "\n";
  std::snprintf(buf, sizeof buf, "%.17g", sub.total_time_s);
  os << "total " << buf << "\n";
  util::write_file_atomic(sub_dir(sub.id) + "/meta", os.str());
}

void StudyService::journal_locked(const Submission& sub) const {
  if (options_.state_dir.empty()) return;
  try {
    fs::create_directories(sub_dir(sub.id));
    // The spec text is journaled verbatim: the resume scan re-parses exactly
    // the bytes the tenant submitted, so re-admission sees the same spec.
    util::write_file_atomic(sub_dir(sub.id) + "/spec.study", sub.spec_text);
    write_meta_locked(sub);
  } catch (...) {
    std::error_code ignored;
    fs::remove_all(sub_dir(sub.id), ignored);  // leave no half entry for the resume scan
    throw;
  }
}

StudyInfo StudyService::info_locked(const Submission& sub) const {
  StudyInfo info;
  info.id = sub.id;
  info.tenant = sub.tenant;
  info.study_name = sub.spec.name;
  info.state = sub.state;
  info.detail = sub.detail;
  info.best_perf = sub.best_perf;
  info.reached_target = sub.reached_target;
  info.time_to_target_s = sub.time_to_target_s;
  info.total_time_s = sub.total_time_s;
  return info;
}

SubmitOutcome StudyService::submit(const std::string& tenant, const std::string& spec_text) {
  SubmitOutcome out;
  core::StudySpec spec;
  try {
    std::istringstream in(spec_text);
    spec = core::load_study_spec(in);
    // Unknown names fail here, before anything is journaled, not later as
    // a run failure.
    (void)core::resolve_study(spec, /*realize_trace=*/false);
  } catch (const std::exception& e) {
    out.reason = std::string("bad-spec: ") + e.what();
    std::lock_guard<std::mutex> lock(mutex_);
    bump("svc.submissions");
    bump("svc.rejected");
    options_.obs.emit(obs::TraceEvent(obs::EventKind::StudyRejected).with_detail(out.reason));
    return out;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  bump("svc.submissions");
  if (stopping_) {
    out.reason = "server-stopping";
    bump("svc.rejected");
    options_.obs.emit(obs::TraceEvent(obs::EventKind::StudyRejected).with_detail(out.reason));
    return out;
  }
  // Tenant allowlist gate (memory-only, like every rejection: the journal
  // never records unauthorized traffic).
  if (!options_.allowed_tenants.empty() &&
      std::find(options_.allowed_tenants.begin(), options_.allowed_tenants.end(),
                tenant) == options_.allowed_tenants.end()) {
    out.reason = "unknown-tenant: " + tenant;
    bump("svc.rejected");
    options_.obs.emit(obs::TraceEvent(obs::EventKind::StudyRejected).with_detail(out.reason));
    return out;
  }
  const std::uint64_t id = next_id_++;
  options_.obs.emit(obs::TraceEvent(obs::EventKind::StudySubmitted)
                        .with_job(static_cast<std::int64_t>(id))
                        .with_detail("tenant=" + tenant));
  const AdmissionDecision decision =
      admission_.submit(id, tenant, options_.machines, spec.deadline);
  out.id = id;
  Submission sub;
  sub.id = id;
  sub.tenant = tenant;
  sub.spec = std::move(spec);
  sub.state =
      decision.verdict == AdmissionVerdict::Run ? StudyState::Running : StudyState::Queued;
  std::string rejection =
      decision.verdict == AdmissionVerdict::Reject ? decision.reason : std::string();
  if (decision.verdict != AdmissionVerdict::Reject) {
    sub.spec_text = spec_text;
    // Journal BEFORE the reply: once the client hears "Submitted", a SIGKILL
    // can no longer lose the submission. A submission the journal cannot
    // hold is not accepted: its admission is undone and it is rejected.
    try {
      journal_locked(sub);
    } catch (const std::exception& e) {
      if (decision.verdict == AdmissionVerdict::Run) {
        (void)admission_.release(id);
      } else {
        (void)admission_.cancel_queued(id);
      }
      rejection = std::string("journal-failed: ") + e.what();
    }
  }
  if (!rejection.empty()) {
    out.reason = rejection;
    bump("svc.rejected");
    options_.obs.emit(obs::TraceEvent(obs::EventKind::StudyRejected)
                          .with_job(static_cast<std::int64_t>(id))
                          .with_detail(rejection));
    // Rejections are memory-only: the submission index remembers them until
    // the process exits, the journal never sees them (DESIGN.md §14).
    sub.spec_text.clear();
    sub.state = StudyState::Failed;
    sub.detail = std::move(rejection);
    subs_.emplace(id, std::move(sub));
    return out;
  }

  auto [it, inserted] = subs_.emplace(id, std::move(sub));
  (void)inserted;

  out.accepted = true;
  out.state = it->second.state;
  if (decision.verdict == AdmissionVerdict::Run) {
    bump("svc.admitted");
    options_.obs.emit(obs::TraceEvent(obs::EventKind::StudyAdmitted)
                          .with_job(static_cast<std::int64_t>(id))
                          .with_detail("tenant=" + tenant));
    launch_locked(id);
  } else {
    out.queue_position = decision.queue_position;
    bump("svc.queued");
    it->second.detail = "queued";
    options_.obs.emit(obs::TraceEvent(obs::EventKind::StudyQueued)
                          .with_job(static_cast<std::int64_t>(id))
                          .with_detail("tenant=" + tenant + " position=" +
                                       std::to_string(decision.queue_position)));
    queued_at_ms_[id] = now_ms();
  }
  return out;
}

bool StudyService::journal_state_locked(Submission& sub) {
  try {
    write_meta_locked(sub);
    return true;
  } catch (const std::exception& e) {
    // The journal still holds the old state, so the new one never takes
    // effect: the submission fails the way a run whose journal breaks does.
    sub.state = StudyState::Failed;
    sub.detail = std::string("run-failed: ") + e.what();
    bump("svc.failed");
    queued_at_ms_.erase(sub.id);
    (void)admission_.release(sub.id);
    (void)admission_.cancel_queued(sub.id);
    return false;
  }
}

bool StudyService::start_locked(Submission& sub) {
  sub.state = StudyState::Running;
  sub.detail.clear();
  return journal_state_locked(sub);
}

void StudyService::launch_locked(std::uint64_t id) {
  workers_.emplace(id, std::thread(&StudyService::run_study, this, id));
}

std::thread StudyService::retire_locked(std::uint64_t id) {
  std::thread previous = std::move(exited_);
  const auto it = workers_.find(id);
  if (it != workers_.end()) {
    exited_ = std::move(it->second);
    workers_.erase(it);
  }
  return previous;
}

void StudyService::drain_locked() {
  if (stopping_) return;  // queued work stays journaled for the next incarnation
  while (auto next = admission_.next_runnable()) {
    auto it = subs_.find(*next);
    if (it == subs_.end()) continue;
    if (!start_locked(it->second)) continue;  // the run never starts
    bump("svc.admitted");
    options_.obs.emit(obs::TraceEvent(obs::EventKind::StudyAdmitted)
                          .with_job(static_cast<std::int64_t>(*next))
                          .with_detail("tenant=" + it->second.tenant));
    const auto qit = queued_at_ms_.find(*next);
    if (qit != queued_at_ms_.end()) {
      if (options_.obs.metrics != nullptr) {
        options_.obs.metrics
            ->histogram("svc.queue_wait_ms", {1.0, 10.0, 100.0, 1000.0, 10000.0})
            .observe(now_ms() - qit->second);
      }
      queued_at_ms_.erase(qit);
    }
    launch_locked(*next);
  }
}

void StudyService::run_study(std::uint64_t id) {
  core::StudySpec spec;
  std::string dir;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = subs_.find(id);
    if (it == subs_.end()) return;
    spec = it->second.spec;
    if (!options_.state_dir.empty()) dir = sub_dir(id);
  }

  // Exactly the StudyManagerOptions the batch CLI builds for
  //   hyperdrive_cli --study ... --machines M --seed S
  // (fair arbitration, health off, no fault plan): this is what makes the
  // service's artifacts byte-identical to batch mode.
  core::StudyManagerOptions mopts;
  mopts.machines = options_.machines;
  mopts.seed = options_.seed;
  mopts.arbitration = core::ArbitrationMode::FairShare;
  obs::RecordingSink sink;
  mopts.obs.sink = &sink;

  core::CheckpointOptions ckpt;
  if (!dir.empty()) {
    ckpt.dir = dir + "/ckpt";
    ckpt.every = util::SimTime::seconds(options_.checkpoint_every_s);
    ckpt.resume = has_checkpoint_frames(ckpt.dir);
    ckpt.kill_after_checkpoints = options_.kill_after_checkpoints;
  }

  std::string failure;
  core::RecoverableRunResult run;
  try {
    run = core::run_recoverable_multi_study({spec}, mopts, ckpt);
  } catch (const std::exception& e) {
    failure = e.what();
  }

  std::string result_csv;
  std::string timeline_csv;
  if (failure.empty()) {
    std::ostringstream rs;
    run.result.save_csv(rs);
    result_csv = rs.str();
    std::ostringstream ts;
    obs::write_timeline_csv(ts, sink.events);
    timeline_csv = ts.str();
    if (!dir.empty()) {
      try {
        util::write_file_atomic(dir + "/result.csv", result_csv);
        util::write_file_atomic(dir + "/timeline.csv", timeline_csv);
      } catch (const std::exception& e) {
        failure = e.what();
      }
    }
  }

  // Declared before the lock, so the previously exited worker is joined
  // only after this worker's last critical section has released mutex_.
  JoinOnExit previous;
  std::lock_guard<std::mutex> lock(mutex_);
  previous.thread = retire_locked(id);
  const auto it = subs_.find(id);
  if (it == subs_.end()) return;
  Submission& sub = it->second;
  if (failure.empty()) {
    if (dir.empty()) {  // durable artifacts are read back from the journal
      sub.result_csv = std::move(result_csv);
      sub.timeline_csv = std::move(timeline_csv);
    }
    if (!run.result.studies.empty()) {
      const auto& r = run.result.studies.front().result;
      sub.best_perf = r.best_perf;
      sub.reached_target = r.reached_target;
      sub.time_to_target_s = r.time_to_target.to_seconds();
    }
    sub.total_time_s = run.result.total_time.to_seconds();
    if (sub.cancel_requested) {
      // The deterministic run is not interruptible mid-sim: the cancel
      // latched and resolves here. Artifacts stay on disk (the run did
      // complete); the state records the tenant's intent.
      sub.state = StudyState::Cancelled;
      sub.detail = "cancelled while running; run completed first";
    } else {
      sub.state = StudyState::Finished;
      sub.detail.clear();
    }
    try {
      write_meta_locked(sub);
    } catch (const std::exception& e) {
      failure = e.what();
    }
  }
  if (!failure.empty()) {
    sub.state = StudyState::Failed;
    sub.detail = "run-failed: " + failure;
    try {
      write_meta_locked(sub);
    } catch (const std::exception& e) {
      // The journal still says running, so a restart runs the study again.
      sub.detail += std::string("; journal: ") + e.what();
    }
  }
  bump(sub.state == StudyState::Failed      ? "svc.failed"
       : sub.state == StudyState::Cancelled ? "svc.cancelled"
                                            : "svc.completed");
  options_.obs.emit(obs::TraceEvent(obs::EventKind::StudyFinished)
                        .with_job(static_cast<std::int64_t>(id))
                        .with_detail("tenant=" + sub.tenant));
  admission_.release(id);
  drain_locked();
  idle_cv_.notify_all();
}

bool StudyService::cancel(std::uint64_t id, std::string& error) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = subs_.find(id);
  if (it == subs_.end()) {
    error = "unknown id " + std::to_string(id);
    return false;
  }
  Submission& sub = it->second;
  switch (sub.state) {
    case StudyState::Queued:
      sub.state = StudyState::Cancelled;
      sub.detail = "cancelled while queued";
      try {
        write_meta_locked(sub);
      } catch (const std::exception& e) {
        // Unjournaled, the cancel would not survive a restart: refuse it.
        sub.state = StudyState::Queued;
        sub.detail = "queued";
        error = std::string("journal-failed: ") + e.what();
        return false;
      }
      (void)admission_.cancel_queued(id);
      queued_at_ms_.erase(id);
      bump("svc.cancelled");
      idle_cv_.notify_all();
      return true;
    case StudyState::Running:
      sub.cancel_requested = true;
      return true;
    case StudyState::Finished:
    case StudyState::Cancelled:
    case StudyState::Failed:
      error = std::string("already ") + to_string(sub.state);
      return false;
  }
  error = "unknown state";
  return false;
}

std::optional<StudyInfo> StudyService::status(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = subs_.find(id);
  if (it == subs_.end()) return std::nullopt;
  return info_locked(it->second);
}

std::vector<StudyInfo> StudyService::list(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<StudyInfo> out;
  for (const auto& [id, sub] : subs_) {
    (void)id;
    if (!tenant.empty() && sub.tenant != tenant) continue;
    out.push_back(info_locked(sub));
  }
  return out;
}

bool StudyService::artifact(std::uint64_t id, ArtifactKind kind, std::string& bytes,
                            std::string& error) const {
  std::string dir;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = subs_.find(id);
    if (it == subs_.end()) {
      error = "unknown id " + std::to_string(id);
      return false;
    }
    const Submission& sub = it->second;
    if (sub.state != StudyState::Finished && sub.state != StudyState::Cancelled) {
      error = std::string("not finished (state=") + to_string(sub.state) + ")";
      return false;
    }
    const std::string& cached =
        kind == ArtifactKind::ResultCsv ? sub.result_csv : sub.timeline_csv;
    if (!cached.empty()) {
      bytes = cached;
      return true;
    }
    if (options_.state_dir.empty()) {
      error = "no artifacts recorded";
      return false;
    }
    dir = sub_dir(id);
  }
  try {
    bytes = read_file(dir + (kind == ArtifactKind::ResultCsv ? "/result.csv"
                                                             : "/timeline.csv"));
  } catch (const std::exception& e) {
    error = e.what();
    return false;
  }
  return true;
}

void StudyService::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [&] {
    return admission_.running_count() == 0 && admission_.queued_count() == 0;
  });
}

void StudyService::stop() {
  std::map<std::uint64_t, std::thread> workers;
  JoinOnExit exited;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stopping_ = true;
    idle_cv_.wait(lock, [&] { return admission_.running_count() == 0; });
    workers.swap(workers_);
    exited.thread = std::move(exited_);
  }
  for (auto& [id, t] : workers) {
    if (t.joinable()) t.join();
  }
}

std::size_t StudyService::running_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return admission_.running_count();
}

std::size_t StudyService::retained_workers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return workers_.size() + (exited_.joinable() ? 1 : 0);
}

std::size_t StudyService::queued_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return admission_.queued_count();
}

void StudyService::resume_scan() {
  // Constructor-time only: no workers exist yet, so no lock is needed, but
  // launch_locked starts threads that immediately block on mutex_ — they
  // proceed once construction returns.
  std::vector<std::uint64_t> ids;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.state_dir, ec)) {
    const std::string name = entry.path().filename().string();
    // Only the name sub_dir(id) writes: strict digits (as CheckpointStore::list
    // reads ckpt-N.hdck) that print back as the same name. "sub-01" or
    // "sub-+1" would otherwise read as id 1 again and re-admit it once more.
    std::uint64_t id = 0;
    if (!name.starts_with("sub-") || !cli::Options::parse_uint(name.substr(4), id) ||
        id == 0 || name != "sub-" + std::to_string(id)) {
      continue;
    }
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());

  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::uint64_t id : ids) {
    Submission sub;
    sub.id = id;
    try {
      sub.spec_text = read_file(sub_dir(id) + "/spec.study");
      std::istringstream spec_in(sub.spec_text);
      sub.spec = core::load_study_spec(spec_in);
      (void)core::resolve_study(sub.spec, /*realize_trace=*/false);
      std::istringstream meta(read_file(sub_dir(id) + "/meta"));
      std::string line;
      while (std::getline(meta, line)) {
        const auto space = line.find(' ');
        if (space == std::string::npos) continue;
        const std::string key = line.substr(0, space);
        const std::string value = line.substr(space + 1);
        if (key == "tenant") sub.tenant = value;
        else if (key == "state") (void)parse_state(value, sub.state);
        else if (key == "detail") sub.detail = value;
        else if (key == "best") sub.best_perf = std::strtod(value.c_str(), nullptr);
        else if (key == "reached") sub.reached_target = value == "1";
        else if (key == "ttt") sub.time_to_target_s = std::strtod(value.c_str(), nullptr);
        else if (key == "total") sub.total_time_s = std::strtod(value.c_str(), nullptr);
      }
    } catch (const std::exception&) {
      // Half-written journal entry (crash mid-journal) or a spec this build
      // cannot resolve: skip it.
      continue;
    }
    next_id_ = std::max(next_id_, id + 1);

    if (sub.state == StudyState::Finished || sub.state == StudyState::Cancelled ||
        sub.state == StudyState::Failed) {
      subs_.emplace(id, std::move(sub));
      continue;
    }
    // Unfinished (queued or running when the last incarnation died):
    // re-admit in id order; the run resumes from its durable checkpoints.
    // A journal error fails that one submission: an earlier one may already
    // have a worker, so nothing may escape the constructor from here on.
    const AdmissionDecision decision =
        admission_.submit(id, sub.tenant, options_.machines, sub.spec.deadline);
    Submission& entry = subs_.emplace(id, std::move(sub)).first->second;
    if (decision.verdict == AdmissionVerdict::Reject) {
      entry.state = StudyState::Failed;
      entry.detail = "resume rejected: " + decision.reason;
      (void)journal_state_locked(entry);
      continue;
    }
    const bool run = decision.verdict == AdmissionVerdict::Run;
    if (run) {
      if (!start_locked(entry)) continue;
    } else {
      entry.state = StudyState::Queued;
      entry.detail = "queued";
      if (!journal_state_locked(entry)) continue;
    }
    ++resumed_;
    bump("svc.resumed");
    if (run) launch_locked(id);
    else queued_at_ms_[id] = now_ms();
  }
}

}  // namespace hyperdrive::svc
