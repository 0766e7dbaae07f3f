// The shared Job Manager (§4.2 ➄) both substrates own: priority-then-FIFO
// idle queue, active-job listing and id lookup.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>

#include "sim/job_manager.hpp"
#include "workload/cifar_model.hpp"
#include "workload/trace.hpp"

namespace hyperdrive::sim {
namespace {

workload::Trace small_trace() {
  workload::CifarWorkloadModel model;
  return workload::generate_trace(model, 5, 77);
}

TEST(JobManagerTest, FifoByDefault) {
  const auto trace = small_trace();
  JobManager jm(trace);
  EXPECT_EQ(jm.get_idle_job(), std::optional<core::JobId>(1));
  jm.dequeue_idle(1);
  EXPECT_EQ(jm.get_idle_job(), std::optional<core::JobId>(2));
}

TEST(JobManagerTest, PriorityBeatsFifo) {
  const auto trace = small_trace();
  JobManager jm(trace);
  jm.label_job(4, 0.8);
  EXPECT_EQ(jm.get_idle_job(), std::optional<core::JobId>(4));
  jm.label_job(2, 0.9);
  EXPECT_EQ(jm.get_idle_job(), std::optional<core::JobId>(2));
}

TEST(JobManagerTest, ReEnqueueGoesToFifoTail) {
  const auto trace = small_trace();
  JobManager jm(trace);
  jm.dequeue_idle(1);
  jm.job(1).status = core::JobStatus::Suspended;
  jm.enqueue_idle(1);
  // Jobs 2..5 were enqueued earlier; job 1 is now behind them.
  EXPECT_EQ(jm.get_idle_job(), std::optional<core::JobId>(2));
}

TEST(JobManagerTest, TerminatedJobsNeverIdle) {
  const auto trace = small_trace();
  JobManager jm(trace);
  for (core::JobId id = 1; id <= 5; ++id) {
    jm.job(id).status = core::JobStatus::Terminated;
  }
  EXPECT_FALSE(jm.get_idle_job().has_value());
}

TEST(JobManagerTest, ActiveJobsExcludesFinished) {
  const auto trace = small_trace();
  JobManager jm(trace);
  jm.job(1).status = core::JobStatus::Completed;
  jm.job(2).status = core::JobStatus::Terminated;
  const auto active = jm.active_jobs();
  EXPECT_EQ(active.size(), 3u);
}

TEST(JobManagerTest, UnknownJobThrows) {
  const auto trace = small_trace();
  JobManager jm(trace);
  EXPECT_THROW((void)jm.job(99), std::out_of_range);
}

}  // namespace
}  // namespace hyperdrive::sim
