#include "cluster/messaging.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/policies/default_policy.hpp"
#include "support/single_run.hpp"
#include "workload/cifar_model.hpp"

namespace hyperdrive::cluster {
namespace {

using util::SimTime;

MessageBusOptions fixed_latency(double seconds) {
  MessageBusOptions options;
  options.latency_mu = 0.0;
  options.latency_sigma = 0.0;
  options.latency_min_s = seconds;
  options.latency_max_s = seconds;
  options.bandwidth_bps = 1000.0;  // 1 KB/s so transfer delays are visible
  return options;
}

TEST(MessageBusTest, DeliversToRegisteredHandlerAfterLatency) {
  sim::Simulation simulation;
  MessageBus bus(simulation, fixed_latency(0.5), 1);
  std::vector<Message> received;
  const auto scheduler = bus.register_endpoint("scheduler", [&](const Message& m) {
    received.push_back(m);
  });

  Message m;
  m.type = MessageType::ReportStat;
  m.to = scheduler;
  m.job_id = 7;
  m.payload_bytes = 0.0;
  bus.send(m);
  simulation.run();

  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].job_id, 7u);
  EXPECT_EQ(received[0].sent_at, SimTime::zero());
  EXPECT_EQ(simulation.now(), SimTime::seconds(0.5));
}

TEST(MessageBusTest, PayloadAddsTransferDelay) {
  sim::Simulation simulation;
  MessageBus bus(simulation, fixed_latency(0.5), 2);
  SimTime delivered_at;
  const auto agent = bus.register_endpoint("agent", [&](const Message&) {
    delivered_at = simulation.now();
  });

  Message m;
  m.type = MessageType::SnapshotDownload;
  m.to = agent;
  m.payload_bytes = 2000.0;  // 2 s at 1 KB/s
  bus.send(m);
  simulation.run();
  EXPECT_NEAR(delivered_at.to_seconds(), 2.5, 1e-9);
}

TEST(MessageBusTest, UnknownDestinationThrows) {
  sim::Simulation simulation;
  MessageBus bus(simulation, fixed_latency(0.1), 3);
  Message m;
  m.to = 999;
  EXPECT_THROW(bus.send(m), std::out_of_range);
}

TEST(MessageBusTest, StatsAccumulatePerType) {
  sim::Simulation simulation;
  MessageBus bus(simulation, fixed_latency(0.01), 4);
  const auto sink = bus.register_endpoint("sink", [](const Message&) {});

  for (int i = 0; i < 3; ++i) {
    Message m;
    m.type = MessageType::ReportStat;
    m.to = sink;
    m.payload_bytes = 100.0;
    bus.send(m);
  }
  Message big;
  big.type = MessageType::SnapshotUpload;
  big.to = sink;
  big.payload_bytes = 1e6;
  bus.send(big);
  simulation.run();

  const auto& stats = bus.stats();
  EXPECT_EQ(stats.messages, 4u);
  EXPECT_DOUBLE_EQ(stats.bytes, 300.0 + 1e6);
  EXPECT_EQ(stats.per_type.at(MessageType::ReportStat), 3u);
  EXPECT_EQ(stats.per_type.at(MessageType::SnapshotUpload), 1u);
}

TEST(MessageBusTest, SequenceNumbersAreMonotonic) {
  sim::Simulation simulation;
  MessageBus bus(simulation, fixed_latency(0.01), 5);
  std::vector<std::uint64_t> seqs;
  const auto sink =
      bus.register_endpoint("sink", [&](const Message& m) { seqs.push_back(m.seq); });
  for (int i = 0; i < 5; ++i) {
    Message m;
    m.to = sink;
    bus.send(m);
  }
  simulation.run();
  ASSERT_EQ(seqs.size(), 5u);
  for (std::size_t i = 1; i < seqs.size(); ++i) EXPECT_GT(seqs[i], seqs[i - 1]);
}

TEST(MessageBusTest, EndpointNamesResolve) {
  sim::Simulation simulation;
  MessageBus bus(simulation, fixed_latency(0.01), 6);
  const auto a = bus.register_endpoint("node-0", [](const Message&) {});
  EXPECT_EQ(bus.endpoint_name(a), "node-0");
  EXPECT_THROW((void)bus.endpoint_name(12345), std::out_of_range);
}

TEST(MessageBusTest, MessageTypeNames) {
  EXPECT_EQ(to_string(MessageType::StartJob), "StartJob");
  EXPECT_EQ(to_string(MessageType::SnapshotUpload), "SnapshotUpload");
  EXPECT_EQ(to_string(MessageType::Ack), "Ack");
}

MessageBusOptions reliable_fixed_latency(double seconds, std::size_t max_attempts) {
  auto options = fixed_latency(seconds);
  options.bandwidth_bps = 0.0;
  options.reliability.enabled = true;
  options.reliability.ack_timeout_s = 0.2;
  options.reliability.max_attempts = max_attempts;
  return options;
}

TEST(MessageBusTest, RetransmissionExhaustionFailsExactlyOnceWithoutDedupLeak) {
  // The network eats every ReportStat (data and retries) while StartJob
  // traffic sails through. Each doomed message must invoke its failure
  // callback exactly once, and — the leak check — must leave no entry in the
  // receiver's dedup table, which only ever saw the delivered messages.
  sim::Simulation simulation;
  MessageBus bus(simulation, reliable_fixed_latency(0.01, 3), 9);
  FaultPlan plan;
  plan.seed = 4;
  MessageFaultProfile lossy;
  lossy.drop_prob = 1.0;
  plan.message_faults[MessageType::ReportStat] = lossy;
  FaultInjector injector(plan, 9);
  bus.set_fault_injector(&injector);

  int handled = 0;
  const auto sink = bus.register_endpoint("sink", [&](const Message&) { ++handled; });

  constexpr std::uint64_t kDoomed = 8, kClean = 8;
  std::map<std::uint64_t, int> failures;  // job_id -> failure callbacks
  for (std::uint64_t i = 0; i < kDoomed; ++i) {
    Message m;
    m.type = MessageType::ReportStat;
    m.to = sink;
    m.job_id = i;
    bus.send(m, [&failures](const Message& lost) { ++failures[lost.job_id]; });
  }
  for (std::uint64_t i = 0; i < kClean; ++i) {
    Message m;
    m.type = MessageType::StartJob;
    m.to = sink;
    m.job_id = 100 + i;
    bus.send(m, [&failures](const Message& lost) { ++failures[lost.job_id]; });
  }
  simulation.run();

  EXPECT_EQ(handled, static_cast<int>(kClean));
  ASSERT_EQ(failures.size(), static_cast<std::size_t>(kDoomed));
  for (const auto& [job, count] : failures) {
    EXPECT_LT(job, kDoomed) << "a delivered message reported failure";
    EXPECT_EQ(count, 1) << "message " << job << " failed " << count << " times";
  }
  EXPECT_EQ(bus.stats().undeliverable, kDoomed);
  EXPECT_EQ(bus.stats().retransmissions, kDoomed * 2u);  // attempts 2..3 each
  EXPECT_EQ(bus.in_flight(), 0u);  // every transmission settled
  EXPECT_EQ(bus.dedup_entries(sink), static_cast<std::size_t>(kClean));
  EXPECT_THROW((void)bus.dedup_entries(12345), std::out_of_range);
}

TEST(MessageBusTest, LostAcksDeliverOnceAndStillReportSenderSideFailure) {
  // Inverse exhaustion: the data always arrives but every ack dies, so the
  // sender retries until giving up. The handler must fire exactly once (the
  // dedup table absorbs the retries — and keeps its one entry, since the
  // message *was* delivered), while the sender, unable to know, reports the
  // failure exactly once.
  sim::Simulation simulation;
  MessageBus bus(simulation, reliable_fixed_latency(0.01, 4), 10);
  FaultPlan plan;
  plan.seed = 5;
  MessageFaultProfile lossy;
  lossy.drop_prob = 1.0;
  plan.message_faults[MessageType::Ack] = lossy;
  FaultInjector injector(plan, 10);
  bus.set_fault_injector(&injector);

  int handled = 0, failed = 0;
  const auto sink = bus.register_endpoint("sink", [&](const Message&) { ++handled; });
  Message m;
  m.type = MessageType::ReportStat;
  m.to = sink;
  bus.send(m, [&](const Message&) { ++failed; });
  simulation.run();

  EXPECT_EQ(handled, 1);
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(bus.stats().duplicates_suppressed, 3u);  // retries 2..4 deduped
  EXPECT_EQ(bus.stats().undeliverable, 1u);
  EXPECT_EQ(bus.dedup_entries(sink), 1u);
  EXPECT_EQ(bus.in_flight(), 0u);
}

TEST(MessageBusTest, VariableLatencyStaysInBounds) {
  sim::Simulation simulation;
  MessageBusOptions options;  // default ~1 ms lognormal
  MessageBus bus(simulation, options, 7);
  std::vector<double> arrival;
  const auto sink = bus.register_endpoint("sink", [&](const Message&) {
    arrival.push_back(simulation.now().to_seconds());
  });
  for (int i = 0; i < 200; ++i) {
    Message m;
    m.to = sink;
    bus.send(m);  // all sent at t = 0
  }
  simulation.run();
  for (const double t : arrival) {
    EXPECT_GE(t, options.latency_min_s);
    EXPECT_LE(t, options.latency_max_s + 1e-12);
  }
}

}  // namespace
}  // namespace hyperdrive::cluster

namespace hyperdrive::cluster {
namespace {

TEST(MessageBusIntegrationTest, ClusterTrafficIsAccounted) {
  workload::CifarWorkloadModel model;
  const auto trace = workload::generate_trace(model, 2, 5);

  class SuspendOnce final : public core::DefaultPolicy {
   public:
    core::JobDecision on_iteration_finish(core::SchedulerOps& ops,
                                          const core::JobEvent& event) override {
      if (event.epoch == 3 && event.job_id == 1 && !done_) {
        done_ = true;
        return core::JobDecision::Suspend;
      }
      return core::DefaultPolicy::on_iteration_finish(ops, event);
    }

   private:
    bool done_ = false;
  };

  SuspendOnce policy;
  ClusterOptions options;
  options.machines = 1;
  options.stop_on_target = false;
  sim::Simulation simulation;
  HyperDriveCluster cluster(trace, options, simulation);
  (void)run_to_end(simulation, cluster, policy);

  const auto& stats = cluster.message_stats();
  // Every completed epoch produced one ReportStat RPC (partial epochs from
  // the suspend discard produce none) and the suspend produced one upload.
  EXPECT_EQ(stats.per_type.at(MessageType::ReportStat),
            2u * model.max_epochs());
  EXPECT_EQ(stats.per_type.at(MessageType::SnapshotUpload), 1u);
  EXPECT_GT(stats.bytes, 2.0 * 256.0 * model.max_epochs());
  EXPECT_EQ(stats.messages, 2u * model.max_epochs() + 1u);
}

}  // namespace
}  // namespace hyperdrive::cluster
