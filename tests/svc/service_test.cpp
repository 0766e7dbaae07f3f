// StudyService tests (DESIGN.md §14): submission lifecycle, quota edge
// cases, durable journal + restart resume, svc.* events/metrics, and the
// headline byte-identity contract — service artifacts equal batch-mode
// coordinator artifacts for the same spec/options.
#include "svc/service.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/study/coordinator.hpp"
#include "obs/export.hpp"
#include "obs/sink.hpp"
#include "support/file_size_limit.hpp"

namespace hyperdrive::svc {
namespace {

const char* kSpecAlpha =
    "study alpha\n"
    "workload cifar10\n"
    "policy pop\n"
    "configs 6\n"
    "seed 7\n";

const char* kSpecBeta =
    "study beta\n"
    "workload cifar10\n"
    "policy bandit\n"
    "configs 5\n"
    "seed 9\n";

std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir;
}

ServiceOptions small_service(const std::string& state_dir) {
  ServiceOptions o;
  o.machines = 4;
  o.seed = 5;
  o.state_dir = state_dir;
  o.checkpoint_every_s = 300.0;
  o.admission.max_running = 2;
  o.admission.max_queued = 4;
  o.admission.tenant.max_slots = 8;
  o.admission.tenant.max_queued = 2;
  return o;
}

/// The batch-mode reference: exactly what `hyperdrive_cli --study` runs for
/// this spec under the service's machines/seed, at the same checkpoint
/// cadence, exported through the same CSV writers.
void reference_artifacts(const std::string& spec_text, const ServiceOptions& sopts,
                         const std::string& ckpt_dir, std::string& result_csv,
                         std::string& timeline_csv) {
  std::istringstream in(spec_text);
  const core::StudySpec spec = core::load_study_spec(in);
  core::StudyManagerOptions mopts;
  mopts.machines = sopts.machines;
  mopts.seed = sopts.seed;
  obs::RecordingSink sink;
  mopts.obs.sink = &sink;
  core::CheckpointOptions ckpt;
  ckpt.dir = ckpt_dir;
  ckpt.every = util::SimTime::seconds(sopts.checkpoint_every_s);
  const auto run = core::run_recoverable_multi_study({spec}, mopts, ckpt);
  std::ostringstream rs;
  run.result.save_csv(rs);
  result_csv = rs.str();
  std::ostringstream ts;
  obs::write_timeline_csv(ts, sink.events);
  timeline_csv = ts.str();
}

TEST(SvcServiceTest, SubmitRunFinishAndArtifactsMatchBatchMode) {
  const auto dir = fresh_dir("svc_service_basic");
  const ServiceOptions sopts = small_service(dir.string());
  StudyService service(sopts);

  const SubmitOutcome out = service.submit("alice", kSpecAlpha);
  ASSERT_TRUE(out.accepted);
  EXPECT_EQ(out.state, StudyState::Running);
  EXPECT_EQ(out.id, 1u);
  service.wait_idle();

  const auto info = service.status(1);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, StudyState::Finished);
  EXPECT_EQ(info->tenant, "alice");
  EXPECT_EQ(info->study_name, "alpha");
  EXPECT_GT(info->best_perf, 0.0);
  EXPECT_GT(info->total_time_s, 0.0);

  std::string result_csv;
  std::string timeline_csv;
  std::string error;
  ASSERT_TRUE(service.artifact(1, ArtifactKind::ResultCsv, result_csv, error)) << error;
  ASSERT_TRUE(service.artifact(1, ArtifactKind::TimelineCsv, timeline_csv, error)) << error;

  std::string ref_result;
  std::string ref_timeline;
  reference_artifacts(kSpecAlpha, sopts, fresh_dir("svc_service_basic_ref").string(),
                      ref_result, ref_timeline);
  EXPECT_EQ(result_csv, ref_result);
  EXPECT_EQ(timeline_csv, ref_timeline);
}

TEST(SvcServiceTest, BadSpecIsRejectedWithParserMessage) {
  // Parse errors, unknown names, options the policy does not accept,
  // malformed integers and out-of-range times are all rejected before
  // anything is journaled or run.
  const auto dir = fresh_dir("svc_service_badspec");
  StudyService service(small_service(dir.string()));
  const std::string named = "study bad\nconfigs 4\n";
  for (const std::string& text : {
           std::string("workload cifar10\nnot-a-directive\n"),
           named + "workload mnist\n",
           named + "generator sobol\n",
           named + "policy popp\n",
           named + "policy asha not-a-key=1\n",
           named + "seed -1\n",
           named + "cancel-at -5\n",
       }) {
    const SubmitOutcome out = service.submit("alice", text);
    EXPECT_FALSE(out.accepted) << text;
    EXPECT_EQ(out.reason.rfind("bad-spec: ", 0), 0u) << out.reason;
  }
  EXPECT_NE(service.submit("alice", named + "workload mnist\n").reason.find("'mnist'"),
            std::string::npos);
  EXPECT_EQ(service.retained_workers(), 0u);
  EXPECT_TRUE(service.list("").empty());
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ADD_FAILURE() << "journaled: " << entry.path();
  }
}

TEST(SvcServiceTest, JournalWriteFailureRejectsTheSubmission) {
  // A submission the journal cannot hold whole is never acknowledged: a
  // restart would re-parse a torn spec.study (or drop it) behind the back of
  // a tenant who heard Submitted.
  const auto dir = fresh_dir("svc_service_journal_fail");
  const ServiceOptions sopts = small_service(dir.string());
  SubmitOutcome out;
  {
    StudyService service(sopts);
    {
      const FileSizeLimit limit(16);  // below the spec's 57 bytes
      out = service.submit("alice", kSpecAlpha);
    }
    EXPECT_FALSE(out.accepted);
    EXPECT_EQ(out.reason.rfind("journal-failed: ", 0), 0u) << out.reason;
    EXPECT_FALSE(std::filesystem::exists(dir / ("sub-" + std::to_string(out.id)) /
                                         "spec.study"));
    const auto info = service.status(out.id);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->state, StudyState::Failed);
    EXPECT_EQ(info->detail, out.reason);
    // The admission was undone: nothing runs, and the next submission does.
    EXPECT_EQ(service.running_count(), 0u);
    EXPECT_EQ(service.retained_workers(), 0u);
    ASSERT_TRUE(service.submit("alice", kSpecAlpha).accepted);
    service.wait_idle();
  }
  StudyService reborn(sopts);
  EXPECT_FALSE(reborn.status(out.id).has_value());
  const auto accepted = reborn.status(out.id + 1);
  ASSERT_TRUE(accepted.has_value());
  EXPECT_EQ(accepted->state, StudyState::Finished);
}

TEST(SvcServiceTest, QueueCancelAndQuotaReasonsEndToEnd) {
  ServiceOptions sopts = small_service(fresh_dir("svc_service_queue").string());
  sopts.admission.max_running = 1;
  sopts.admission.tenant.max_queued = 1;
  StudyService service(sopts);

  const SubmitOutcome first = service.submit("alice", kSpecAlpha);
  ASSERT_TRUE(first.accepted);
  const SubmitOutcome second = service.submit("alice", kSpecBeta);
  ASSERT_TRUE(second.accepted);
  EXPECT_EQ(second.state, StudyState::Queued);
  EXPECT_EQ(second.queue_position, 1u);
  // Alice is now at her queue quota: one more is rejected with the pinned
  // reason, and the rejected id still answers status (memory-only record).
  const SubmitOutcome third = service.submit("alice", kSpecAlpha);
  EXPECT_FALSE(third.accepted);
  EXPECT_EQ(third.reason, "tenant-quota-queued: tenant=alice queued=1/1");
  const auto rejected = service.status(third.id);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(rejected->state, StudyState::Failed);
  EXPECT_EQ(rejected->detail, third.reason);

  // Cancel-while-queued releases the quota immediately.
  std::string error;
  ASSERT_TRUE(service.cancel(second.id, error)) << error;
  const auto cancelled = service.status(second.id);
  ASSERT_TRUE(cancelled.has_value());
  EXPECT_EQ(cancelled->state, StudyState::Cancelled);
  const SubmitOutcome fourth = service.submit("alice", kSpecBeta);
  EXPECT_TRUE(fourth.accepted);

  service.wait_idle();
  // Terminal-state cancels are refused.
  EXPECT_FALSE(service.cancel(first.id, error));
  EXPECT_EQ(error, "already finished");
  EXPECT_FALSE(service.cancel(9999, error));
}

TEST(SvcServiceTest, ListFiltersByTenantInIdOrder) {
  StudyService service(small_service(fresh_dir("svc_service_list").string()));
  ASSERT_TRUE(service.submit("alice", kSpecAlpha).accepted);
  ASSERT_TRUE(service.submit("bob", kSpecBeta).accepted);
  service.wait_idle();
  const auto all = service.list("");
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].id, 1u);
  EXPECT_EQ(all[1].id, 2u);
  const auto bob = service.list("bob");
  ASSERT_EQ(bob.size(), 1u);
  EXPECT_EQ(bob[0].tenant, "bob");
}

TEST(SvcServiceTest, RestartReloadsFinishedSubmissionsFromJournal) {
  const auto dir = fresh_dir("svc_service_restart");
  const ServiceOptions sopts = small_service(dir.string());
  std::string first_result;
  {
    StudyService service(sopts);
    ASSERT_TRUE(service.submit("alice", kSpecAlpha).accepted);
    service.wait_idle();
    std::string error;
    ASSERT_TRUE(service.artifact(1, ArtifactKind::ResultCsv, first_result, error));
  }
  StudyService reborn(sopts);
  EXPECT_EQ(reborn.resumed_count(), 0u);  // terminal states are not re-admitted
  const auto info = reborn.status(1);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, StudyState::Finished);
  EXPECT_GT(info->best_perf, 0.0);
  std::string bytes;
  std::string error;
  ASSERT_TRUE(reborn.artifact(1, ArtifactKind::ResultCsv, bytes, error)) << error;
  EXPECT_EQ(bytes, first_result);
  // A new submission picks up after the journaled ids.
  const SubmitOutcome next = reborn.submit("bob", kSpecBeta);
  ASSERT_TRUE(next.accepted);
  EXPECT_EQ(next.id, 2u);
  reborn.wait_idle();
}

TEST(SvcServiceTest, RestartResumesUnfinishedSubmissionsByteIdentically) {
  const auto dir = fresh_dir("svc_service_resume");
  // Incarnation one admits nothing (max_running=0): both submissions queue,
  // are journaled, and stay queued when the service stops — the same durable
  // picture a SIGKILL mid-queue leaves behind.
  ServiceOptions gate = small_service(dir.string());
  gate.admission.max_running = 0;
  {
    StudyService service(gate);
    ASSERT_TRUE(service.submit("alice", kSpecAlpha).accepted);
    ASSERT_TRUE(service.submit("bob", kSpecBeta).accepted);
    EXPECT_EQ(service.queued_count(), 2u);
  }
  // Incarnation two re-admits both in id order and runs them to completion.
  const ServiceOptions sopts = small_service(dir.string());
  StudyService reborn(sopts);
  EXPECT_EQ(reborn.resumed_count(), 2u);
  reborn.wait_idle();
  for (std::uint64_t id : {1u, 2u}) {
    const auto info = reborn.status(id);
    ASSERT_TRUE(info.has_value()) << id;
    EXPECT_EQ(info->state, StudyState::Finished) << id;
  }
  std::string got;
  std::string error;
  ASSERT_TRUE(reborn.artifact(1, ArtifactKind::ResultCsv, got, error)) << error;
  std::string ref_result;
  std::string ref_timeline;
  reference_artifacts(kSpecAlpha, sopts, fresh_dir("svc_service_resume_ref").string(),
                      ref_result, ref_timeline);
  EXPECT_EQ(got, ref_result);
  ASSERT_TRUE(reborn.artifact(1, ArtifactKind::TimelineCsv, got, error)) << error;
  EXPECT_EQ(got, ref_timeline);
}

TEST(SvcServiceTest, ResumeScanSkipsNonCanonicalSubmissionNames) {
  // An unfinished journal entry plus stray directories whose suffixes also
  // read as id 1 under a lenient number parse. Each one re-admitting id 1
  // would launch a second worker for the same id and abort the process.
  const auto dir = fresh_dir("svc_service_stray_dirs");
  std::filesystem::create_directories(dir / "sub-1");
  {
    std::ofstream spec(dir / "sub-1" / "spec.study");
    spec << kSpecAlpha;
    std::ofstream meta(dir / "sub-1" / "meta");
    meta << "tenant alice\nstate running\n";
  }
  std::filesystem::create_directories(dir / "sub-01");
  std::filesystem::create_directories(dir / "sub-+1");

  StudyService service(small_service(dir.string()));
  EXPECT_EQ(service.resumed_count(), 1u);
  service.wait_idle();
  EXPECT_EQ(service.list("").size(), 1u);
  const auto info = service.status(1);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, StudyState::Finished);
}

TEST(SvcServiceTest, RestartFailsOnlyTheStudyWhoseMetaCannotBeRewritten) {
  // Two unfinished journal entries, and a directory where sub-2's meta.tmp
  // goes, so re-admitting study 2 cannot journal its Running state. Study 1
  // already has a worker by then: the error must fail study 2 alone instead
  // of unwinding the constructor past a joinable thread.
  const auto dir = fresh_dir("svc_service_resume_meta_fail");
  for (const char* name : {"sub-1", "sub-2"}) {
    std::filesystem::create_directories(dir / name);
    std::ofstream(dir / name / "spec.study") << kSpecAlpha;
    std::ofstream(dir / name / "meta") << "tenant alice\nstate running\n";
  }
  std::filesystem::create_directories(dir / "sub-2" / "meta.tmp" / "blocker");

  obs::MetricsRegistry registry;
  preregister_service_metrics(registry);
  ServiceOptions sopts = small_service(dir.string());
  sopts.obs.metrics = &registry;
  StudyService service(sopts);
  service.wait_idle();
  EXPECT_EQ(service.resumed_count(), 1u);
  const auto first = service.status(1);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->state, StudyState::Finished);
  const auto second = service.status(2);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->state, StudyState::Failed);
  EXPECT_EQ(second->detail.rfind("run-failed: ", 0), 0u) << second->detail;
  EXPECT_EQ(registry.counter("svc.failed").value(), 1u);
  EXPECT_EQ(service.running_count(), 0u);
}

TEST(SvcServiceTest, EmitsTypedEventsAndPinnedMetrics) {
  obs::RecordingSink sink;
  obs::MetricsRegistry registry;
  preregister_service_metrics(registry);
  ServiceOptions sopts = small_service(fresh_dir("svc_service_obs").string());
  sopts.admission.max_running = 1;
  sopts.obs.sink = &sink;
  sopts.obs.metrics = &registry;
  StudyService service(sopts);

  ASSERT_TRUE(service.submit("alice", kSpecAlpha).accepted);
  ASSERT_TRUE(service.submit("bob", kSpecBeta).accepted);   // queued
  EXPECT_FALSE(service.submit("eve", "garbage\n").accepted);  // bad-spec reject
  service.wait_idle();

  EXPECT_EQ(sink.count(obs::EventKind::StudySubmitted), 2u);
  EXPECT_EQ(sink.count(obs::EventKind::StudyAdmitted), 2u);
  EXPECT_EQ(sink.count(obs::EventKind::StudyQueued), 1u);
  EXPECT_EQ(sink.count(obs::EventKind::StudyRejected), 1u);
  EXPECT_EQ(sink.count(obs::EventKind::StudyFinished), 2u);
  const auto queued = sink.of_kind(obs::EventKind::StudyQueued);
  ASSERT_EQ(queued.size(), 1u);
  EXPECT_EQ(queued[0]->detail, "tenant=bob position=1");

  EXPECT_EQ(registry.counter("svc.submissions").value(), 3u);
  EXPECT_EQ(registry.counter("svc.admitted").value(), 2u);
  EXPECT_EQ(registry.counter("svc.queued").value(), 1u);
  EXPECT_EQ(registry.counter("svc.rejected").value(), 1u);
  EXPECT_EQ(registry.counter("svc.completed").value(), 2u);

  // The export leads with the svc.* block in pinned registration order.
  std::ostringstream os;
  registry.write_csv(os);
  const std::string csv = os.str();
  const auto sub_pos = csv.find("svc.submissions");
  const auto adm_pos = csv.find("svc.admitted");
  const auto rej_pos = csv.find("svc.rejected");
  ASSERT_NE(sub_pos, std::string::npos);
  EXPECT_LT(sub_pos, adm_pos);
  EXPECT_LT(adm_pos, rej_pos);
}

TEST(SvcServiceTest, MemoryOnlyServiceServesArtifactsFromCache) {
  ServiceOptions sopts = small_service("");
  sopts.state_dir.clear();
  StudyService service(sopts);
  ASSERT_TRUE(service.submit("alice", kSpecAlpha).accepted);
  service.wait_idle();
  std::string bytes;
  std::string error;
  ASSERT_TRUE(service.artifact(1, ArtifactKind::ResultCsv, bytes, error)) << error;
  EXPECT_FALSE(bytes.empty());
}

TEST(SvcServiceTest, DurableServiceServesArtifactsFromTheJournal) {
  // A durable service holds no copy of a finished study's artifacts: every
  // fetch reads the journal, so a rewritten result.csv is what comes back.
  const auto dir = fresh_dir("svc_service_journal_fetch");
  StudyService service(small_service(dir.string()));
  ASSERT_TRUE(service.submit("alice", kSpecAlpha).accepted);
  service.wait_idle();
  std::ofstream(dir / "sub-1" / "result.csv", std::ios::binary | std::ios::trunc)
      << "rewritten\n";
  std::string bytes;
  std::string error;
  ASSERT_TRUE(service.artifact(1, ArtifactKind::ResultCsv, bytes, error)) << error;
  EXPECT_EQ(bytes, "rewritten\n");
}

TEST(SvcServiceTest, ExitedWorkersAreJoinedAcrossManyStudies) {
  // An always-on server must not keep one thread per study ever served:
  // each exiting worker joins the previous one, so the retained handles stay
  // bounded by the running workers plus one, not by the study count.
  ServiceOptions sopts = small_service("");
  sopts.state_dir.clear();
  StudyService service(sopts);
  const std::size_t bound = sopts.admission.max_running + 1;
  const char* spec =
      "study tiny\n"
      "workload cifar10\n"
      "policy bandit\n"
      "configs 3\n"
      "seed 3\n";
  constexpr std::size_t kRounds = 12;
  for (std::size_t round = 0; round < kRounds; ++round) {
    // Two at a time, filling max_running = 2.
    ASSERT_TRUE(service.submit("alice", spec).accepted);
    ASSERT_TRUE(service.submit("bob", spec).accepted);
    EXPECT_LE(service.retained_workers(), bound) << "round " << round;
    service.wait_idle();
    EXPECT_LE(service.retained_workers(), bound) << "round " << round;
  }
  const auto subs = service.list("");
  ASSERT_EQ(subs.size(), 2 * kRounds);
  for (const auto& info : subs) EXPECT_EQ(info.state, StudyState::Finished) << info.id;
  service.stop();
  EXPECT_EQ(service.retained_workers(), 0u);
}

}  // namespace
}  // namespace hyperdrive::svc
