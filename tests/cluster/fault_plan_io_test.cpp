// Round-trip and error-reporting tests for the fault-plan text format
// (README "Fault-plan files"): save_fault_plan(load_fault_plan(text))
// reproduces the text exactly, loaded plans drive the FaultInjector the same
// as the originals, and malformed input fails with a line number.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "cluster/fault_injector.hpp"
#include "cluster/messaging.hpp"

namespace hyperdrive::cluster {
namespace {

using util::SimTime;

/// A plan exercising every directive, including the gray-failure ones.
FaultPlan full_plan() {
  FaultPlan plan;
  plan.seed = 42;
  MessageFaultProfile def;
  def.drop_prob = 0.125;
  def.duplicate_prob = 0.0625;
  def.delay_prob = 0.25;
  def.delay_mean_s = 0.5;
  plan.set_uniform_message_faults(def);
  MessageFaultProfile stats;
  stats.drop_prob = 0.3;
  plan.message_faults[MessageType::ReportStat] = stats;

  NodeCrashEvent crash;
  crash.machine = 2;
  crash.at = SimTime::seconds(300.5);
  crash.restart_after = SimTime::seconds(120);
  plan.crashes.push_back(crash);
  NodeCrashEvent permanent;
  permanent.machine = 3;
  permanent.at = SimTime::hours(2);
  plan.crashes.push_back(permanent);  // restart_after stays infinity

  NodeSlowdownEvent slow;
  slow.machine = 0;
  slow.from = SimTime::seconds(10);
  slow.until = SimTime::seconds(500);
  slow.factor = 4.0;
  plan.slowdowns.push_back(slow);
  NodeSlowdownEvent flap;  // unbounded, flapping
  flap.machine = 1;
  flap.factor = 2.5;
  flap.period = SimTime::seconds(60);
  flap.duty = 0.25;
  plan.slowdowns.push_back(flap);

  HungJobEvent hang;
  hang.machine = 1;
  hang.at = SimTime::seconds(700);
  hang.clear_after = SimTime::seconds(90);
  plan.hangs.push_back(hang);
  HungJobEvent dead;  // clear_after stays infinity
  dead.machine = 2;
  dead.at = SimTime::hours(1);
  plan.hangs.push_back(dead);

  CoordinatorCrashEvent coord;
  coord.at = SimTime::seconds(1234.5);
  plan.coordinator_crashes.push_back(coord);

  plan.snapshot_upload_fail_prob = 0.05;
  plan.snapshot_corrupt_prob = 0.01;
  return plan;
}

std::string save(const FaultPlan& plan) {
  std::ostringstream out;
  save_fault_plan(plan, out);
  return out.str();
}

FaultPlan load(const std::string& text) {
  std::istringstream in(text);
  return load_fault_plan(in);
}

TEST(FaultPlanIoTest, SaveLoadSaveIsAFixedPoint) {
  const auto plan = full_plan();
  const std::string once = save(plan);
  const FaultPlan reloaded = load(once);
  EXPECT_EQ(save(reloaded), once);

  // Spot-check the loaded fields (text equality alone would also pass if
  // both serializations dropped the same directive).
  EXPECT_EQ(reloaded.seed, 42u);
  EXPECT_DOUBLE_EQ(reloaded.default_message_faults.drop_prob, 0.125);
  EXPECT_DOUBLE_EQ(reloaded.default_message_faults.delay_mean_s, 0.5);
  ASSERT_EQ(reloaded.message_faults.count(MessageType::ReportStat), 1u);
  EXPECT_DOUBLE_EQ(reloaded.message_faults.at(MessageType::ReportStat).drop_prob, 0.3);
  ASSERT_EQ(reloaded.crashes.size(), 2u);
  EXPECT_EQ(reloaded.crashes[0].machine, 2u);
  EXPECT_EQ(reloaded.crashes[0].restart_after, SimTime::seconds(120));
  EXPECT_EQ(reloaded.crashes[1].restart_after, SimTime::infinity());
  ASSERT_EQ(reloaded.slowdowns.size(), 2u);
  EXPECT_EQ(reloaded.slowdowns[1].until, SimTime::infinity());
  EXPECT_EQ(reloaded.slowdowns[1].period, SimTime::seconds(60));
  EXPECT_DOUBLE_EQ(reloaded.slowdowns[1].duty, 0.25);
  ASSERT_EQ(reloaded.hangs.size(), 2u);
  EXPECT_EQ(reloaded.hangs[0].clear_after, SimTime::seconds(90));
  EXPECT_EQ(reloaded.hangs[1].clear_after, SimTime::infinity());
  ASSERT_EQ(reloaded.coordinator_crashes.size(), 1u);
  EXPECT_EQ(reloaded.coordinator_crashes[0].at, SimTime::seconds(1234.5));
  EXPECT_DOUBLE_EQ(reloaded.snapshot_corrupt_prob, 0.01);
}

TEST(FaultPlanIoTest, LoadedPlanDrivesTheInjectorIdentically) {
  const auto plan = full_plan();
  const FaultPlan reloaded = load(save(plan));
  FaultInjector a(plan, 9), b(reloaded, 9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.should_drop(MessageType::ReportStat), b.should_drop(MessageType::ReportStat));
    EXPECT_EQ(a.should_duplicate(MessageType::StartJob),
              b.should_duplicate(MessageType::StartJob));
    EXPECT_EQ(a.should_fail_upload(), b.should_fail_upload());
    const auto t = SimTime::seconds(7.0 * i);
    EXPECT_EQ(a.slowdown_factor(0, t), b.slowdown_factor(0, t));
    EXPECT_EQ(a.slowdown_factor(1, t), b.slowdown_factor(1, t));
    EXPECT_EQ(a.is_hung(1, t), b.is_hung(1, t));
    EXPECT_EQ(a.hang_stall(2, t, SimTime::seconds(30)),
              b.hang_stall(2, t, SimTime::seconds(30)));
  }
}

TEST(FaultPlanIoTest, ParsesCommentsBlankLinesAndInf) {
  const FaultPlan plan = load(
      "# a comment line\n"
      "\n"
      "seed 7   # trailing comment\n"
      "drop * 0.1\n"
      "delay ReportStat 0.2 0.05\n"
      "slowdown 3 0 inf 2.0\n"
      "hang 1 60\n");
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_DOUBLE_EQ(plan.default_message_faults.drop_prob, 0.1);
  EXPECT_DOUBLE_EQ(plan.message_faults.at(MessageType::ReportStat).delay_mean_s, 0.05);
  ASSERT_EQ(plan.slowdowns.size(), 1u);
  EXPECT_EQ(plan.slowdowns[0].until, SimTime::infinity());
  ASSERT_EQ(plan.hangs.size(), 1u);
  EXPECT_EQ(plan.hangs[0].clear_after, SimTime::infinity());
  EXPECT_TRUE(plan.any());
  EXPECT_TRUE(plan.any_gray());
}

TEST(FaultPlanIoTest, EmptyInputIsAFaultFreePlan) {
  EXPECT_FALSE(load("").any());
  EXPECT_FALSE(load("# only comments\n\n").any());
}

TEST(FaultPlanIoTest, CoordinatorCrashesStayOutOfAny) {
  // any() gates cluster-side fault machinery (and flips the MessageBus into
  // reliable mode); a coordinator-only plan must leave the tenants byte-
  // identical to a fault-free run, so it reports through any_coordinator().
  const FaultPlan plan = load("coordinator-crash 3600\n");
  ASSERT_EQ(plan.coordinator_crashes.size(), 1u);
  EXPECT_EQ(plan.coordinator_crashes[0].at, SimTime::seconds(3600));
  EXPECT_FALSE(plan.any());
  EXPECT_FALSE(plan.any_gray());
  EXPECT_TRUE(plan.any_coordinator());
  EXPECT_FALSE(FaultPlan{}.any_coordinator());

  // Pre-recovery plan files (no coordinator-crash directive) keep loading
  // byte-compatibly and leave the new list empty.
  const FaultPlan legacy = load("seed 7\ndrop * 0.1\n");
  EXPECT_TRUE(legacy.coordinator_crashes.empty());
  EXPECT_FALSE(legacy.any_coordinator());
}

void expect_error(const std::string& text, const std::string& needle) {
  try {
    (void)load(text);
    FAIL() << "expected invalid_argument for: " << text;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message '" << e.what() << "' lacks '" << needle << "'";
  }
}

TEST(FaultPlanIoTest, ErrorsCarryLineNumbers) {
  expect_error("seed 1\nwobble 3\n", "line 2");
  expect_error("drop Nonsense 0.5\n", "unknown message type");
  expect_error("drop * banana\n", "bad probability");
  expect_error("crash 0\n", "missing crash time");
  expect_error("slowdown 0 0 100 2.0 60\n", "missing duty");  // period without duty
  expect_error("hang 0 10 20 30\n", "trailing token");
  expect_error("coordinator-crash\n", "crash time");
  expect_error("coordinator-crash 10 20\n", "trailing token");
}

TEST(FaultPlanIoTest, IntegerFieldsLoadExactly) {
  // Seeds and machine ids are read as integers, not through a double, so
  // a seed past 2^53 survives the trip exactly.
  for (const std::uint64_t seed :
       {(std::uint64_t{1} << 53) + 1, std::numeric_limits<std::uint64_t>::max()}) {
    FaultPlan plan = full_plan();
    plan.seed = seed;
    const std::string text = save(plan);
    const FaultPlan reloaded = load(text);
    EXPECT_EQ(reloaded.seed, seed);
    EXPECT_EQ(save(reloaded), text);
  }
  const FaultPlan wide = load("crash 4294967295 10\n");
  ASSERT_EQ(wide.crashes.size(), 1u);
  EXPECT_EQ(wide.crashes[0].machine, 4294967295u);

  for (const char* seed : {"-1", "1.5", "inf", "nan", "1e3", "+7", "18446744073709551616"}) {
    expect_error(std::string("drop * 0.1\nseed ") + seed + "\n",
                 std::string("line 2: bad seed '") + seed + "'");
  }
  expect_error("crash -1 10\n", "bad machine '-1'");
  expect_error("crash 1.5 10\n", "bad machine '1.5'");
  expect_error("crash 4294967296 10\n", "bad machine '4294967296'");
  expect_error("slowdown -2 0 100 2.0\n", "bad machine '-2'");
  expect_error("hang inf 10\n", "bad machine 'inf'");
  expect_error("spot-preemption nan 10\n", "bad machine 'nan'");
}

}  // namespace
}  // namespace hyperdrive::cluster
