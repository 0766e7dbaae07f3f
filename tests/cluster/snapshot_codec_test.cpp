#include "cluster/snapshot_codec.hpp"

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "core/policies/default_policy.hpp"
#include "support/single_run.hpp"
#include "workload/cifar_model.hpp"

namespace hyperdrive::cluster {
namespace {

JobSnapshotState sample_state() {
  JobSnapshotState state;
  state.job_id = 42;
  state.epoch = 17;
  state.config.set("lr", 0.003);
  state.config.set("batch", std::int64_t{128});
  state.config.set("optimizer", std::string("sgd"));
  state.history = {0.1, 0.2, 0.35, 0.42};
  state.secondary = {0.0, 0.05};
  return state;
}

TEST(Crc32Test, MatchesKnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const std::string s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()),
            0xCBF43926u);
}

TEST(Crc32Test, EmptyInput) { EXPECT_EQ(crc32(nullptr, 0), 0u); }

TEST(SnapshotCodecTest, RoundTripsAllFields) {
  const auto state = sample_state();
  const auto image = SnapshotCodec::encode(state);
  const auto decoded = SnapshotCodec::decode(image);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->job_id, 42u);
  EXPECT_EQ(decoded->epoch, 17u);
  EXPECT_DOUBLE_EQ(decoded->config.get_double("lr"), 0.003);
  EXPECT_EQ(decoded->config.get_int("batch"), 128);
  EXPECT_EQ(decoded->config.get_categorical("optimizer"), "sgd");
  EXPECT_EQ(decoded->history, state.history);
  EXPECT_EQ(decoded->secondary, state.secondary);
}

TEST(SnapshotCodecTest, EmptyStateRoundTrips) {
  JobSnapshotState state;
  state.job_id = 1;
  const auto decoded = SnapshotCodec::decode(SnapshotCodec::encode(state));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->history.empty());
  EXPECT_EQ(decoded->config.size(), 0u);
}

TEST(SnapshotCodecTest, PaddingGrowsImageAndStillDecodes) {
  const auto state = sample_state();
  const auto small = SnapshotCodec::encode(state);
  const auto padded = SnapshotCodec::encode(state, 100000);
  EXPECT_GE(padded.size(), 100000u);
  EXPECT_LT(small.size(), 1000u);
  const auto decoded = SnapshotCodec::decode(padded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->history, state.history);
}

TEST(SnapshotCodecTest, DetectsBitFlips) {
  const auto image = SnapshotCodec::encode(sample_state());
  // Flip one bit anywhere in the body: the checksum must catch it.
  for (std::size_t pos : {std::size_t{4}, image.size() / 2, image.size() - 5}) {
    auto corrupted = image;
    corrupted[pos] ^= 0x01;
    EXPECT_FALSE(SnapshotCodec::decode(corrupted).has_value()) << "pos " << pos;
  }
}

TEST(SnapshotCodecTest, DetectsTruncation) {
  const auto image = SnapshotCodec::encode(sample_state());
  for (std::size_t keep : {std::size_t{0}, std::size_t{3}, image.size() / 2}) {
    std::vector<std::uint8_t> truncated(image.begin(),
                                        image.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_FALSE(SnapshotCodec::decode(truncated).has_value());
  }
}

TEST(SnapshotCodecTest, RejectsWrongMagic) {
  auto image = SnapshotCodec::encode(sample_state());
  image[0] ^= 0xFF;
  EXPECT_FALSE(SnapshotCodec::decode(image).has_value());
}

TEST(SnapshotCodecTest, ClusterSuspendStoresDecodableImages) {
  // Drive a real suspend through the cluster and verify the stored image
  // restores to the job's exact observed history.
  workload::CifarWorkloadModel model;
  const auto trace = workload::generate_trace(model, 2, 99);

  class SuspendAtTwo final : public core::DefaultPolicy {
   public:
    core::JobDecision on_iteration_finish(core::SchedulerOps& ops,
                                          const core::JobEvent& event) override {
      if (event.epoch == 2 && event.job_id == 1 && !done_) {
        done_ = true;
        return core::JobDecision::Suspend;
      }
      return core::DefaultPolicy::on_iteration_finish(ops, event);
    }

   private:
    bool done_ = false;
  };

  SuspendAtTwo policy;
  ClusterOptions options;
  options.machines = 1;
  options.stop_on_target = false;
  options.epoch_jitter_sigma = 0.0;
  sim::Simulation simulation;
  HyperDriveCluster cluster(trace, options, simulation);
  (void)run_to_end(simulation, cluster, policy);

  const auto snapshot = cluster.app_stat_db().latest_snapshot(1);
  ASSERT_TRUE(snapshot.has_value());
  const auto state = SnapshotCodec::decode(snapshot->image);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->job_id, 1u);
  EXPECT_EQ(state->epoch, 2u);
  ASSERT_EQ(state->history.size(), 2u);
  EXPECT_DOUBLE_EQ(state->history[0], trace.jobs[0].curve.perf[0]);
  EXPECT_DOUBLE_EQ(state->history[1], trace.jobs[0].curve.perf[1]);
  EXPECT_EQ(state->config.stable_hash(), trace.jobs[0].config.stable_hash());
}

}  // namespace
}  // namespace hyperdrive::cluster
