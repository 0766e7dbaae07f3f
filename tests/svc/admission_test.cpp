// AdmissionController tests (DESIGN.md §14): verdicts, pinned rejection
// reason strings, per-tenant quota accounting, quota release on
// finish/cancel, and the static|fair|deadline|cost dequeue orders.
#include "svc/admission.hpp"

#include <gtest/gtest.h>

#include "util/sim_time.hpp"

namespace hyperdrive::svc {
namespace {

using util::SimTime;

AdmissionOptions small_options() {
  AdmissionOptions o;
  o.max_running = 2;
  o.max_queued = 3;
  o.tenant.max_slots = 8;
  o.tenant.max_queued = 2;
  o.arbitration = core::ArbitrationMode::FairShare;
  return o;
}

AdmissionDecision go(AdmissionController& c, std::uint64_t id, const std::string& tenant,
                     std::size_t slots = 4,
                     SimTime deadline = SimTime::infinity()) {
  return c.submit(id, tenant, slots, deadline);
}

TEST(AdmissionTest, RunsImmediatelyWithHeadroom) {
  AdmissionController c(small_options());
  const auto d = go(c, 1, "alice");
  EXPECT_EQ(d.verdict, AdmissionVerdict::Run);
  EXPECT_EQ(c.running_count(), 1u);
  EXPECT_EQ(c.tenant_running_slots("alice"), 4u);
}

TEST(AdmissionTest, QueuesWhenServerBusy) {
  AdmissionController c(small_options());
  EXPECT_EQ(go(c, 1, "alice").verdict, AdmissionVerdict::Run);
  EXPECT_EQ(go(c, 2, "bob").verdict, AdmissionVerdict::Run);
  const auto d = go(c, 3, "carol");
  EXPECT_EQ(d.verdict, AdmissionVerdict::Queue);
  EXPECT_EQ(d.queue_position, 1u);
  EXPECT_EQ(c.queued_count(), 1u);
}

TEST(AdmissionTest, NewcomerNeverOvertakesTheQueue) {
  AdmissionOptions o = small_options();
  o.tenant.max_slots = 4;  // one running study per tenant
  AdmissionController c(o);
  EXPECT_EQ(go(c, 1, "alice").verdict, AdmissionVerdict::Run);
  EXPECT_EQ(go(c, 2, "alice").verdict, AdmissionVerdict::Queue);  // alice at quota
  // Bob has headroom and the server has a free run slot, but id 2 waits in
  // the queue ahead of him: he must queue too (no overtaking on submit).
  EXPECT_EQ(go(c, 3, "bob").verdict, AdmissionVerdict::Queue);
  // Dequeue, however, may pass over blocked waiters: bob is runnable now.
  const auto next = c.next_runnable();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 3u);
}

TEST(AdmissionTest, ServerFullReasonString) {
  AdmissionOptions o = small_options();
  o.max_queued = 1;
  AdmissionController c(o);
  EXPECT_EQ(go(c, 1, "alice").verdict, AdmissionVerdict::Run);
  EXPECT_EQ(go(c, 2, "bob").verdict, AdmissionVerdict::Run);
  EXPECT_EQ(go(c, 3, "carol").verdict, AdmissionVerdict::Queue);
  const auto d = go(c, 4, "dave");
  EXPECT_EQ(d.verdict, AdmissionVerdict::Reject);
  EXPECT_EQ(d.reason, "server-full: running=2/2 queued=1/1");
  // A rejection leaves no trace in any quota.
  EXPECT_EQ(c.queued_count(), 1u);
  EXPECT_EQ(c.tenant_queued("dave"), 0u);
}

TEST(AdmissionTest, ImpossibleSlotAskIsRejectedOutright) {
  AdmissionController c(small_options());
  const auto d = go(c, 1, "alice", /*slots=*/16);
  EXPECT_EQ(d.verdict, AdmissionVerdict::Reject);
  EXPECT_EQ(d.reason, "tenant-quota-slots: need=16 limit=8");
}

TEST(AdmissionTest, TenantAtSlotQuotaQueuesOneMore) {
  AdmissionOptions o = small_options();
  o.max_running = 4;
  AdmissionController c(o);
  // Alice fills her 8-slot quota with two 4-slot studies.
  EXPECT_EQ(go(c, 1, "alice").verdict, AdmissionVerdict::Run);
  EXPECT_EQ(go(c, 2, "alice").verdict, AdmissionVerdict::Run);
  EXPECT_EQ(c.tenant_running_slots("alice"), 8u);
  // One more: queued (global headroom exists, her quota is the binding cap).
  EXPECT_EQ(go(c, 3, "alice").verdict, AdmissionVerdict::Queue);
  // She cannot be dequeued while at quota...
  EXPECT_FALSE(c.next_runnable().has_value());
  // ...until one of her studies releases its slots.
  EXPECT_TRUE(c.release(1));
  const auto next = c.next_runnable();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 3u);
  EXPECT_EQ(c.tenant_running_slots("alice"), 8u);
}

TEST(AdmissionTest, TenantQueueQuotaReasonString) {
  AdmissionOptions o = small_options();
  o.max_running = 1;
  o.max_queued = 10;
  o.tenant.max_queued = 2;
  AdmissionController c(o);
  EXPECT_EQ(go(c, 1, "alice").verdict, AdmissionVerdict::Run);
  EXPECT_EQ(go(c, 2, "alice").verdict, AdmissionVerdict::Queue);
  EXPECT_EQ(go(c, 3, "alice").verdict, AdmissionVerdict::Queue);
  const auto d = go(c, 4, "alice");
  EXPECT_EQ(d.verdict, AdmissionVerdict::Reject);
  EXPECT_EQ(d.reason, "tenant-quota-queued: tenant=alice queued=2/2");
  // Another tenant still queues fine.
  EXPECT_EQ(go(c, 5, "bob").verdict, AdmissionVerdict::Queue);
}

TEST(AdmissionTest, CancelWhileQueuedReleasesQueueQuota) {
  AdmissionOptions o = small_options();
  o.max_running = 1;
  o.tenant.max_queued = 1;
  AdmissionController c(o);
  EXPECT_EQ(go(c, 1, "alice").verdict, AdmissionVerdict::Run);
  EXPECT_EQ(go(c, 2, "alice").verdict, AdmissionVerdict::Queue);
  EXPECT_EQ(go(c, 3, "alice").verdict, AdmissionVerdict::Reject);
  EXPECT_TRUE(c.cancel_queued(2));
  EXPECT_EQ(c.tenant_queued("alice"), 0u);
  EXPECT_EQ(go(c, 4, "alice").verdict, AdmissionVerdict::Queue);
  // Unknown / already-cancelled ids are refused.
  EXPECT_FALSE(c.cancel_queued(2));
  EXPECT_FALSE(c.cancel_queued(99));
}

TEST(AdmissionTest, ReleaseIsIdempotentAndFreesSlots) {
  AdmissionController c(small_options());
  EXPECT_EQ(go(c, 1, "alice").verdict, AdmissionVerdict::Run);
  EXPECT_TRUE(c.release(1));
  EXPECT_FALSE(c.release(1));
  EXPECT_EQ(c.running_count(), 0u);
  EXPECT_EQ(c.tenant_running_slots("alice"), 0u);
}

TEST(AdmissionTest, StaticArbitrationIsStrictFifo) {
  AdmissionOptions o = small_options();
  o.max_running = 1;
  o.arbitration = core::ArbitrationMode::StaticPartition;
  AdmissionController c(o);
  EXPECT_EQ(go(c, 1, "alice").verdict, AdmissionVerdict::Run);
  EXPECT_EQ(go(c, 2, "alice").verdict, AdmissionVerdict::Queue);
  EXPECT_EQ(go(c, 3, "bob").verdict, AdmissionVerdict::Queue);
  EXPECT_TRUE(c.release(1));
  // FIFO: alice's waiter goes first even though bob holds fewer slots.
  const auto next = c.next_runnable();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 2u);
}

TEST(AdmissionTest, FairArbitrationPrefersLeastLoadedTenant) {
  AdmissionOptions o = small_options();
  o.max_running = 2;
  AdmissionController c(o);
  EXPECT_EQ(go(c, 1, "alice").verdict, AdmissionVerdict::Run);
  EXPECT_EQ(go(c, 2, "alice").verdict, AdmissionVerdict::Run);
  EXPECT_EQ(go(c, 3, "alice").verdict, AdmissionVerdict::Queue);
  EXPECT_EQ(go(c, 4, "bob").verdict, AdmissionVerdict::Queue);
  EXPECT_TRUE(c.release(1));
  // Fair share: bob (0 running slots) beats alice (4) despite queue order.
  const auto next = c.next_runnable();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 4u);
  // Now both hold 4 slots; the tie breaks by submission order.
  EXPECT_TRUE(c.release(2));
  const auto after = c.next_runnable();
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(*after, 3u);
}

TEST(AdmissionTest, DeadlineArbitrationPicksEarliestDeadline) {
  // Cost arbitration extends deadline-aware, so it dequeues the same way.
  for (const auto mode : {core::ArbitrationMode::DeadlineAware, core::ArbitrationMode::Cost}) {
    SCOPED_TRACE(core::to_string(mode));
    AdmissionOptions o = small_options();
    o.max_running = 1;
    o.arbitration = mode;
    AdmissionController c(o);
    EXPECT_EQ(go(c, 1, "alice").verdict, AdmissionVerdict::Run);
    EXPECT_EQ(go(c, 2, "alice", 4, SimTime::hours(10)).verdict, AdmissionVerdict::Queue);
    EXPECT_EQ(go(c, 3, "bob", 4, SimTime::hours(2)).verdict, AdmissionVerdict::Queue);
    EXPECT_EQ(go(c, 4, "carol").verdict, AdmissionVerdict::Queue);  // no deadline
    EXPECT_TRUE(c.release(1));
    const auto next = c.next_runnable();
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(*next, 3u);  // earliest deadline first; deadline-less go last
  }
}

}  // namespace
}  // namespace hyperdrive::svc
