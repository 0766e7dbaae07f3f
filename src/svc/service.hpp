// StudyService — the always-on execution core behind hyperdrive_serve
// (DESIGN.md §14). Accepts study-spec submissions from multiple tenants,
// pushes them through the AdmissionController, and runs each admitted study
// as its own crash-recoverable coordinator run (core::run_recoverable_
// multi_study) on a worker thread.
//
// Byte-identity contract: a study submitted to the service produces result
// and timeline artifacts byte-identical to the batch run
//
//   hyperdrive_cli --study spec --machines M --seed S
//       --checkpoint-out D --checkpoint-every E --csv r.csv --trace-out t.csv
//
// because the service builds the exact same StudyManagerOptions the batch
// CLI builds (same machines/seed, FairShare arbitration, health off, empty
// fault plan) and exports through the same save_csv / save_timeline_file
// code paths. Studies run on the deterministic sim clock; the service's own
// wall-clock concurrency is byte-invisible to every study.
//
// Durability: every accepted submission is journaled under
// state_dir/sub-<id>/ *before* the client sees its Submitted reply —
// spec.study (the submitted text, verbatim) plus a meta file — and each run
// writes durable HDCK checkpoints into sub-<id>/ckpt. A SIGKILL'd server
// therefore resumes every in-flight study on restart: finished submissions
// are reloaded from their meta, unfinished ones are re-admitted in id order
// and their runs resume from the newest valid checkpoint frame (deterministic
// replay with byte-verification), so the final artifacts are identical to an
// uninterrupted run. Rejected submissions are deliberately memory-only, and
// so is a submission the journal fails to hold ("journal-failed: ..."). A
// journal write that fails later fails the run ("run-failed: ..."); no
// journal error escapes to the server or a worker thread.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/study/study_spec.hpp"
#include "obs/scope.hpp"
#include "svc/admission.hpp"
#include "svc/protocol.hpp"

namespace hyperdrive::svc {

struct ServiceOptions {
  /// Machine slots for every study's cluster (mirrors the batch --machines).
  std::size_t machines = 4;
  /// Base seed for every study manager (mirrors the batch --seed).
  std::uint64_t seed = 1;
  /// Tenant allowlist (--tenants). Empty (default) admits any tenant name;
  /// non-empty rejects unlisted tenants with the pinned reason
  /// "unknown-tenant: <tenant>" before admission control sees them.
  std::vector<std::string> allowed_tenants;
  AdmissionOptions admission;
  /// Durable journal root; empty = memory-only (no resume; tests and
  /// perfbench's svc-studies timed loop run this way).
  std::string state_dir;
  /// Per-study durable checkpoint cadence in simulated seconds (0 = only the
  /// final frame). Mirrors the batch --checkpoint-every.
  double checkpoint_every_s = 0.0;
  /// Testing hook forwarded into every study run's CheckpointOptions: the
  /// process SIGKILLs itself after its Nth durable checkpoint write
  /// (serve_smoke.sh uses this to die mid-flight deterministically).
  std::size_t kill_after_checkpoints = 0;
  /// svc.* events and metrics (admission path only, never study-internal).
  obs::Scope obs;
};

struct SubmitOutcome {
  bool accepted = false;
  std::uint64_t id = 0;            ///< allocated for every submission
  StudyState state = StudyState::Queued;  ///< Running|Queued when accepted
  std::string reason;              ///< pinned rejection reason (rejects only)
  std::size_t queue_position = 0;  ///< 1-based (queued only)
};

class StudyService {
 public:
  /// Scans state_dir (when set): finished/cancelled submissions are reloaded
  /// into the index, unfinished ones are re-admitted in id order and resume
  /// from their checkpoints.
  explicit StudyService(ServiceOptions options);
  ~StudyService();
  StudyService(const StudyService&) = delete;
  StudyService& operator=(const StudyService&) = delete;

  /// Parse + admit one submission. Never throws on bad input: a spec the
  /// parser or core::resolve_study rejects (unknown workload, generator or
  /// policy, unaccepted policy option) comes back as a memory-only rejection
  /// with reason "bad-spec: ...", and one whose journal entry cannot be
  /// written with "journal-failed: ..." (its admission undone).
  [[nodiscard]] SubmitOutcome submit(const std::string& tenant, const std::string& spec_text);

  /// Cancel a submission. Queued: removed immediately (quota released).
  /// Running: cooperative — the deterministic study run is not interruptible
  /// mid-sim, so the cancel latches and the submission is marked Cancelled
  /// when its worker returns (artifacts are still written). Returns false
  /// with `error` set for unknown ids, terminal states, and a queued cancel
  /// the journal fails to record ("journal-failed: ...").
  bool cancel(std::uint64_t id, std::string& error);

  [[nodiscard]] std::optional<StudyInfo> status(std::uint64_t id) const;
  /// All submissions in id order; `tenant` filters when non-empty.
  [[nodiscard]] std::vector<StudyInfo> list(const std::string& tenant) const;

  /// Fetch a finished submission's result/timeline CSV bytes, read back from
  /// the journal (held in memory only by a memory-only service). False +
  /// `error` for unknown ids or non-finished states.
  bool artifact(std::uint64_t id, ArtifactKind kind, std::string& bytes,
                std::string& error) const;

  /// Block until nothing is running or queued.
  void wait_idle();
  /// Stop accepting, let running studies finish, leave queued submissions
  /// journaled for the next incarnation, join all workers. Idempotent;
  /// the destructor calls it.
  void stop();

  [[nodiscard]] std::size_t running_count() const;
  [[nodiscard]] std::size_t queued_count() const;
  /// Worker threads not yet joined: the running studies' workers plus at
  /// most one exited worker, which the next worker to exit (or stop())
  /// joins. Bounded by max_running + 1 however many studies were served.
  [[nodiscard]] std::size_t retained_workers() const;
  /// Unfinished submissions re-admitted by the startup scan.
  [[nodiscard]] std::size_t resumed_count() const noexcept { return resumed_; }
  [[nodiscard]] const ServiceOptions& options() const noexcept { return options_; }

 private:
  struct Submission {
    std::uint64_t id = 0;
    std::string tenant;
    std::string spec_text;
    core::StudySpec spec;
    StudyState state = StudyState::Queued;
    std::string detail;
    bool cancel_requested = false;
    // Final summary (Finished only).
    double best_perf = 0.0;
    bool reached_target = false;
    double time_to_target_s = 0.0;
    double total_time_s = 0.0;
    // Finished artifacts, held in memory-only mode; a durable service keeps
    // them only in the journal and serves fetches from there.
    std::string result_csv;
    std::string timeline_csv;
  };

  [[nodiscard]] std::string sub_dir(std::uint64_t id) const;
  void journal_locked(const Submission& sub) const;   ///< spec.study + meta
  void write_meta_locked(const Submission& sub) const;
  /// Journals `sub`'s new state before it takes effect. If the meta write
  /// fails, the submission fails instead: Failed with "run-failed: ...",
  /// counted in svc.failed, its admission released. Returns whether the
  /// write held.
  bool journal_state_locked(Submission& sub);
  /// Marks `sub` Running and journals that: the last step before its worker
  /// launches, for a dequeued study and a re-admitted one alike.
  bool start_locked(Submission& sub);
  void launch_locked(std::uint64_t id);
  /// A worker's last locked step: park its own thread handle as the exited
  /// worker and return the previously parked one, which the caller joins
  /// after releasing mutex_ (never itself; the joined thread has already
  /// left its last critical section).
  [[nodiscard]] std::thread retire_locked(std::uint64_t id);
  void drain_locked();  ///< start every next_runnable() (unless stopping)
  void run_study(std::uint64_t id);
  void resume_scan();
  [[nodiscard]] StudyInfo info_locked(const Submission& sub) const;
  void bump(const char* name) const;  ///< svc.* counter, null-safe

  ServiceOptions options_;
  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;
  AdmissionController admission_;
  std::map<std::uint64_t, Submission> subs_;  ///< id order = list order
  /// Wall-clock queue-entry stamps (ms) feeding svc.queue_wait_ms only —
  /// never any study artifact.
  std::map<std::uint64_t, double> queued_at_ms_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, std::thread> workers_;  ///< running, by submission id
  std::thread exited_;  ///< the last worker to exit, not yet joined
  bool stopping_ = false;
  std::size_t resumed_ = 0;
};

/// Pin the registration (= CSV export) order of every svc.* metric, so a
/// server --metrics-out snapshot is byte-deterministic regardless of which
/// admission path fires first. Call after preregister_checkpoint_metrics.
void preregister_service_metrics(obs::MetricsRegistry& registry);

}  // namespace hyperdrive::svc
