#include <gtest/gtest.h>

#include <cmath>

#include "cluster/app_stat_db.hpp"
#include "cluster/node_agent.hpp"
#include "cluster/overhead_model.hpp"
#include "cluster/resource_manager.hpp"
#include "util/stats.hpp"

namespace hyperdrive::cluster {
namespace {

using util::SimTime;

TEST(ResourceManagerTest, ReserveAndRelease) {
  ResourceManager rm(3);
  EXPECT_EQ(rm.total(), 3u);
  EXPECT_EQ(rm.idle(), 3u);
  const auto a = rm.reserve_idle_machine();
  const auto b = rm.reserve_idle_machine();
  ASSERT_TRUE(a && b);
  EXPECT_NE(*a, *b);
  EXPECT_EQ(rm.idle(), 1u);
  EXPECT_TRUE(rm.is_busy(*a));
  rm.release_machine(*a);
  EXPECT_FALSE(rm.is_busy(*a));
  EXPECT_EQ(rm.idle(), 2u);
}

TEST(ResourceManagerTest, ExhaustionReturnsNullopt) {
  ResourceManager rm(1);
  ASSERT_TRUE(rm.reserve_idle_machine().has_value());
  EXPECT_FALSE(rm.reserve_idle_machine().has_value());
}

TEST(ResourceManagerTest, DoubleReleaseThrows) {
  ResourceManager rm(1);
  const auto m = rm.reserve_idle_machine();
  rm.release_machine(*m);
  EXPECT_THROW(rm.release_machine(*m), std::logic_error);
}

TEST(ResourceManagerTest, InvalidIdsThrow) {
  ResourceManager rm(2);
  EXPECT_THROW(rm.release_machine(99), std::out_of_range);
  EXPECT_THROW((void)rm.is_busy(99), std::out_of_range);
  EXPECT_THROW(ResourceManager(0), std::invalid_argument);
}

TEST(AppStatDbTest, RecordsStatsInOrder) {
  AppStatDb db;
  auto make_stat = [](core::JobId job, std::size_t epoch, double perf, double secs,
                      MachineId node) {
    AppStat stat;
    stat.job_id = job;
    stat.epoch = epoch;
    stat.perf = perf;
    stat.epoch_duration = SimTime::seconds(secs);
    stat.node = node;
    stat.reported_at = SimTime::seconds(secs * static_cast<double>(epoch));
    return stat;
  };
  db.record_stat(make_stat(1, 1, 0.2, 60, 0));
  db.record_stat(make_stat(1, 2, 0.3, 60, 0));
  db.record_stat(make_stat(2, 1, 0.1, 30, 1));
  EXPECT_EQ(db.stats(1).size(), 2u);
  EXPECT_EQ(db.perf_history(1), (std::vector<double>{0.2, 0.3}));
  EXPECT_EQ(db.perf_history(2), (std::vector<double>{0.1}));
  EXPECT_TRUE(db.perf_history(42).empty());
  EXPECT_TRUE(db.stats(42).empty());
}

TEST(AppStatDbTest, SnapshotsLatestWins) {
  AppStatDb db;
  EXPECT_FALSE(db.latest_snapshot(1).has_value());
  ModelSnapshot first;
  first.job_id = 1;
  first.epoch = 10;
  first.size_bytes = 1000.0;
  first.stored_at = SimTime::seconds(600);
  db.store_snapshot(first);
  ModelSnapshot second = first;
  second.epoch = 20;
  second.size_bytes = 2000.0;
  second.stored_at = SimTime::seconds(1200);
  db.store_snapshot(second);
  const auto snap = db.latest_snapshot(1);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->epoch, 20u);
  EXPECT_DOUBLE_EQ(snap->size_bytes, 2000.0);
}

TEST(NodeAgentTest, AccountingAccumulates) {
  NodeAgent agent(3);
  EXPECT_EQ(agent.id(), 3u);
  agent.note_busy(SimTime::seconds(10));
  agent.note_busy(SimTime::seconds(5));
  agent.note_epoch();
  agent.note_prediction();
  EXPECT_EQ(agent.busy_time(), SimTime::seconds(15));
  EXPECT_EQ(agent.epochs_run(), 1u);
  EXPECT_EQ(agent.predictions_run(), 1u);
}


TEST(ClampedLognormalTest, RespectsClamp) {
  ClampedLognormal dist{0.0, 2.0, 0.5, 2.0};
  util::Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = dist.sample(rng);
    EXPECT_GE(v, 0.5);
    EXPECT_LE(v, 2.0);
  }
}

TEST(OverheadModelTest, CifarSuspendsMatchPaperStatistics) {
  // §6.2.3: avg 157.69 ms (sigma 72 ms), max 1.12 s; snapshots avg 357.67 KB,
  // max 686.06 KB.
  const auto model = cifar_overhead_model();
  util::Rng rng(2);
  std::vector<double> latency, size;
  for (int i = 0; i < 20000; ++i) {
    const auto s = model.sample_suspend(rng);
    latency.push_back(s.latency.to_seconds());
    size.push_back(s.snapshot_bytes);
  }
  EXPECT_NEAR(util::mean(latency), 0.158, 0.03);
  EXPECT_LE(util::max_of(latency), 1.12);
  EXPECT_NEAR(util::mean(size), 357.67e3, 50e3);
  EXPECT_LE(util::max_of(size), 686.06e3);
}

TEST(OverheadModelTest, LunarCriuSnapshotsAreHeavier) {
  // Fig. 10: latency up to 22.36 s, snapshots up to 43.75 MB.
  const auto model = lunar_criu_overhead_model();
  util::Rng rng(3);
  std::vector<double> latency, size;
  for (int i = 0; i < 20000; ++i) {
    const auto s = model.sample_suspend(rng);
    latency.push_back(s.latency.to_seconds());
    size.push_back(s.snapshot_bytes);
  }
  EXPECT_LE(util::max_of(latency), 22.36);
  EXPECT_GT(util::mean(latency), 1.0);
  EXPECT_LE(util::max_of(size), 43.75e6);
  EXPECT_GT(util::mean(size), 10e6);
  // CRIU snapshots dwarf framework-level ones.
  EXPECT_GT(util::mean(size), 10.0 * 686.06e3);
}

TEST(OverheadModelTest, ResumeCostScalesWithSnapshotSize) {
  // Fix the restore latency (zero-variance distribution) so the transfer
  // term is isolated: the cost difference must be exactly size / bandwidth.
  auto model = cifar_overhead_model();
  model.suspend_latency_s = {std::log(0.1), 0.0, 0.1, 0.1};
  util::Rng rng(4);
  SuspendOverheadSample small{SimTime::milliseconds(100), 1e3};
  SuspendOverheadSample big{SimTime::milliseconds(100), 686e3};
  const double small_cost = model.resume_cost(small, rng).to_seconds();
  const double big_cost = model.resume_cost(big, rng).to_seconds();
  EXPECT_NEAR(big_cost - small_cost, (686e3 - 1e3) / model.resume_bandwidth_bps, 1e-9);
}

TEST(OverheadModelTest, ZeroModelIsFree) {
  const auto model = zero_overhead_model();
  util::Rng rng(5);
  const auto s = model.sample_suspend(rng);
  EXPECT_EQ(s.latency, SimTime::zero());
  EXPECT_DOUBLE_EQ(s.snapshot_bytes, 0.0);
  EXPECT_EQ(model.resume_cost(s, rng), SimTime::zero());
  EXPECT_EQ(model.sample_stat_latency(rng), SimTime::zero());
  EXPECT_EQ(model.job_start_cost, SimTime::zero());
}

TEST(OverheadModelTest, StatLatencyIsMilliseconds) {
  const auto model = cifar_overhead_model();
  util::Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const auto l = model.sample_stat_latency(rng);
    EXPECT_GE(l.to_seconds(), 2e-4);
    EXPECT_LE(l.to_seconds(), 0.01);
  }
}

}  // namespace
}  // namespace hyperdrive::cluster
