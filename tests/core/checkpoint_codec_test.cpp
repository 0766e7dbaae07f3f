// Coordinator checkpoint codec + store tests (DESIGN.md §12):
//   * a fully-populated CoordinatorCheckpoint round-trips through
//     encode/decode, including spec and fault-plan text blobs;
//   * decode failures carry the shared SnapshotDecodeError taxonomy
//     (truncation, magic, version, trailing bytes, checksum);
//   * CheckpointStore writes atomic frames, lists them newest-first, and
//     reloads exactly what it wrote.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/fault_injector.hpp"
#include "core/study/checkpoint.hpp"

namespace hyperdrive::core {
namespace {

using cluster::SnapshotDecodeError;
using util::SimTime;

CoordinatorCheckpoint sample_checkpoint() {
  StudySpec alpha;
  alpha.name = "alpha";
  alpha.workload = "cifar10";
  alpha.seed = 11;
  StudySpec beta;
  beta.name = "beta";
  beta.policy = "bandit";
  beta.deadline = SimTime::hours(4);
  beta.weight = 2.0;

  StudyManagerOptions options;
  options.machines = 6;
  options.arbitration = ArbitrationMode::DeadlineAware;
  options.arbitration_interval = SimTime::minutes(5);
  options.seed = 99;
  options.checkpoint_every = SimTime::minutes(10);
  options.health.enabled = true;
  options.health.quarantine_strikes = 5;
  cluster::CoordinatorCrashEvent crash;
  crash.at = SimTime::hours(1);
  options.fault_plan.coordinator_crashes.push_back(crash);
  options.fault_plan.seed = 3;

  CoordinatorCheckpoint cp = make_checkpoint_inputs({alpha, beta}, options);
  cp.sequence = 7;
  cp.tick = SimTime::seconds(4200.5);
  cp.rebalances = 3;
  cp.crashes_taken = 1;
  cp.state = {1, 2, 3, 4, 5, 250, 251, 252};
  return cp;
}

TEST(CheckpointCodecTest, RoundTripsEveryField) {
  const CoordinatorCheckpoint cp = sample_checkpoint();
  const auto image = encode_checkpoint(cp);
  const auto decoded = decode_checkpoint(image);
  ASSERT_TRUE(decoded.checkpoint.has_value())
      << (decoded.error ? cluster::to_string(*decoded.error) : "?");
  const CoordinatorCheckpoint& out = *decoded.checkpoint;

  EXPECT_EQ(out.sequence, 7u);
  EXPECT_EQ(out.tick, SimTime::seconds(4200.5));
  EXPECT_EQ(out.rebalances, 3u);
  EXPECT_EQ(out.crashes_taken, 1u);
  EXPECT_EQ(out.state, cp.state);

  EXPECT_EQ(out.options.machines, 6u);
  EXPECT_EQ(out.options.arbitration, ArbitrationMode::DeadlineAware);
  EXPECT_EQ(out.options.arbitration_interval, SimTime::minutes(5));
  EXPECT_EQ(out.options.seed, 99u);
  EXPECT_EQ(out.options.checkpoint_every, SimTime::minutes(10));
  EXPECT_TRUE(out.options.health.enabled);
  EXPECT_EQ(out.options.health.quarantine_strikes, 5u);

  // Inputs round-trip through their canonical text forms.
  const auto specs = out.specs();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].name, "alpha");
  EXPECT_EQ(specs[0].seed, 11u);
  EXPECT_EQ(specs[1].name, "beta");
  EXPECT_EQ(specs[1].policy, "bandit");
  EXPECT_EQ(specs[1].deadline, SimTime::hours(4));
  EXPECT_DOUBLE_EQ(specs[1].weight, 2.0);

  const auto plan = out.fault_plan();
  ASSERT_EQ(plan.coordinator_crashes.size(), 1u);
  EXPECT_EQ(plan.coordinator_crashes[0].at, SimTime::hours(1));
  EXPECT_EQ(plan.seed, 3u);
  // Coordinator-only plans stay invisible to the tenant fault machinery.
  EXPECT_FALSE(plan.any());
  EXPECT_TRUE(plan.any_coordinator());
}

TEST(CheckpointCodecTest, EncodeIsDeterministic) {
  EXPECT_EQ(encode_checkpoint(sample_checkpoint()), encode_checkpoint(sample_checkpoint()));
}

/// FNV-1a over a frame's bytes (spelled out here so the digests do not
/// depend on the code under test).
std::uint64_t fnv(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

// Durable frames outlive the binary that wrote them: a resumed coordinator
// must read every byte an older build wrote. These digests pin the v2 frame
// layout, options image included; a codec change that moves a byte fails
// here instead of at a user's restart.
TEST(CheckpointCodecTest, FrameBytesArePinned) {
  const auto sample = encode_checkpoint(sample_checkpoint());
  EXPECT_EQ(sample.size(), 546u);
  EXPECT_EQ(fnv(sample), 0x3a7b4b02219f7cd4ULL);

  StudySpec spec;
  spec.name = "solo";
  const auto defaults = encode_checkpoint(make_checkpoint_inputs({spec}, {}));
  EXPECT_EQ(defaults.size(), 364u);
  EXPECT_EQ(fnv(defaults), 0x1f9ee78fd0c1a1e1ULL);
}

TEST(CheckpointCodecTest, DecodeClassifiesFailures) {
  const auto image = encode_checkpoint(sample_checkpoint());

  const auto error_of = [](const std::vector<std::uint8_t>& img) {
    const auto r = decode_checkpoint(img);
    EXPECT_FALSE(r.checkpoint.has_value());
    return r.error;
  };

  EXPECT_EQ(error_of({}), SnapshotDecodeError::Truncated);
  EXPECT_EQ(error_of({0x4B, 0x43}), SnapshotDecodeError::Truncated);
  for (const std::size_t len : {std::size_t{5}, image.size() / 2, image.size() - 5}) {
    EXPECT_EQ(error_of({image.begin(), image.begin() + static_cast<long>(len)}),
              SnapshotDecodeError::Truncated)
        << "len " << len;
  }

  auto bad_magic = image;
  bad_magic[1] ^= 0x40;
  EXPECT_EQ(error_of(bad_magic), SnapshotDecodeError::BadMagic);

  auto bad_version = image;
  bad_version[4] = 0x2A;
  EXPECT_EQ(error_of(bad_version), SnapshotDecodeError::UnknownVersion);

  auto trailing = image;
  trailing.insert(trailing.end(), {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(error_of(trailing), SnapshotDecodeError::TrailingGarbage);

  // Flip a bit in the opaque state blob: structure parses, CRC disagrees.
  auto flipped = image;
  flipped[flipped.size() - 6] ^= 0x10;
  EXPECT_EQ(error_of(flipped), SnapshotDecodeError::BadChecksum);

  // A job-snapshot frame is not a checkpoint frame.
  cluster::JobSnapshotState snap;
  snap.job_id = 1;
  EXPECT_EQ(error_of(cluster::SnapshotCodec::encode(snap)), SnapshotDecodeError::BadMagic);
}

TEST(CheckpointCodecTest, StoreWritesListsAndReloads) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / "hd_ckpt_store_test";
  std::filesystem::remove_all(dir);
  CheckpointStore store(dir.string());

  CoordinatorCheckpoint cp = sample_checkpoint();
  for (const std::uint64_t seq : {3u, 1u, 12u}) {
    cp.sequence = seq;
    cp.tick = SimTime::seconds(static_cast<double>(seq) * 100.0);
    EXPECT_GT(store.write(cp), 0u);
  }

  EXPECT_EQ(store.list(), (std::vector<std::uint64_t>{12, 3, 1}));
  const auto reloaded = store.load(12);
  ASSERT_TRUE(reloaded.checkpoint.has_value());
  EXPECT_EQ(reloaded.checkpoint->tick, SimTime::seconds(1200));
  EXPECT_EQ(reloaded.checkpoint->state, cp.state);

  // Missing sequences read as truncated, never throw.
  EXPECT_EQ(store.load(999).error, SnapshotDecodeError::Truncated);

  // Rewriting a sequence replaces the frame atomically (no .tmp residue).
  cp.sequence = 12;
  cp.rebalances = 77;
  (void)store.write(cp);
  EXPECT_EQ(store.load(12).checkpoint->rebalances, 77u);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().extension(), ".hdck") << entry.path();
  }

  std::filesystem::remove_all(dir);
}

TEST(CheckpointCodecTest, StoreSkipsForeignFilesInListing) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / "hd_ckpt_foreign_test";
  std::filesystem::remove_all(dir);
  CheckpointStore store(dir.string());

  CoordinatorCheckpoint cp = sample_checkpoint();
  cp.sequence = 2;
  (void)store.write(cp);
  std::ofstream(dir / "README.txt") << "not a frame";
  std::ofstream(dir / "ckpt-junk.hdck") << "bad digits";
  std::ofstream(dir / "ckpt-000005.hdck.tmp") << "a write in flight";

  EXPECT_EQ(store.list(), (std::vector<std::uint64_t>{2}));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hyperdrive::core
