// Admission control and per-tenant quotas for the service front-end
// (DESIGN.md §14). Pure bookkeeping — no I/O, no threads, no clock — so the
// whole decision surface is unit-testable and the StudyService can hold it
// under its own mutex.
//
// Lifecycle of one submission id:
//
//   submit() ──► Run      (counted against global running + tenant slots)
//            ──► Queue    (counted against global + tenant queue depth)
//            ──► Reject   (pinned reason string; nothing is counted)
//   next_runnable()       Queue ──► Run, under the arbitration mode
//   cancel_queued()       Queue ──► gone (queue quota released)
//   release()             Run   ──► gone (slot quota released)
//
// Quota accounting is in machine slots: every running study holds its
// `slots` (the service's per-study machine count) against its tenant's
// max_slots until release(). Queue accounting is in studies.
//
// Rejection reasons are part of the protocol surface (clients and tests
// match on them); their formats are pinned by AdmissionTest and documented
// in DESIGN.md §14.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/study/study_manager.hpp"
#include "util/sim_time.hpp"

namespace hyperdrive::svc {

/// Per-tenant limits, applied uniformly to every tenant.
struct TenantQuota {
  /// Machine slots a tenant's *running* studies may hold in total.
  std::size_t max_slots = 16;
  /// Studies a tenant may have waiting in the queue.
  std::size_t max_queued = 8;
};

struct AdmissionOptions {
  /// Server-wide cap on concurrently running studies.
  std::size_t max_running = 4;
  /// Server-wide cap on queued studies.
  std::size_t max_queued = 16;
  TenantQuota tenant;
  /// Dequeue order across tenants when capacity frees up:
  ///   static    strict FIFO (submission order);
  ///   fair      tenant holding the fewest running slots first;
  ///   deadline  earliest study deadline first (none = last);
  ///   cost      as deadline (cost arbitration extends deadline-aware).
  /// Ties always break by submission order.
  core::ArbitrationMode arbitration = core::ArbitrationMode::FairShare;
};

enum class AdmissionVerdict { Run, Queue, Reject };

struct AdmissionDecision {
  AdmissionVerdict verdict = AdmissionVerdict::Reject;
  /// Pinned reason string (Reject only).
  std::string reason;
  /// 1-based queue position (Queue only).
  std::size_t queue_position = 0;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options);

  /// Decide for a new submission of `slots` machine slots by `tenant`.
  /// `deadline` orders the queue under deadline arbitration. Run/Queue are
  /// recorded; Reject leaves no trace. Not thread-safe (caller locks).
  AdmissionDecision submit(std::uint64_t id, const std::string& tenant, std::size_t slots,
                           util::SimTime deadline);

  /// A running study finished or was cancelled: release its slots. Returns
  /// false for an id that was not running (already released / never ran).
  bool release(std::uint64_t id);

  /// Remove a queued submission (cancel-while-queued). Returns false when
  /// the id is not in the queue.
  bool cancel_queued(std::uint64_t id);

  /// Pop the next queued submission that can start now — global running
  /// headroom plus its tenant's slot headroom — under the arbitration mode.
  /// The returned id is immediately counted as running. nullopt when nothing
  /// is runnable (empty queue, server full, or every waiter's tenant at
  /// quota).
  [[nodiscard]] std::optional<std::uint64_t> next_runnable();

  [[nodiscard]] std::size_t running_count() const noexcept { return running_.size(); }
  [[nodiscard]] std::size_t queued_count() const noexcept { return queue_.size(); }
  [[nodiscard]] std::size_t tenant_running_slots(const std::string& tenant) const;
  [[nodiscard]] std::size_t tenant_queued(const std::string& tenant) const;
  [[nodiscard]] const AdmissionOptions& options() const noexcept { return options_; }

 private:
  struct Waiter {
    std::uint64_t id = 0;
    std::string tenant;
    std::size_t slots = 0;
    util::SimTime deadline = util::SimTime::infinity();
    std::uint64_t seq = 0;  ///< submission order, the universal tie-breaker
  };
  struct TenantUsage {
    std::size_t running_slots = 0;
    std::size_t queued = 0;
  };

  [[nodiscard]] bool can_run_now(const std::string& tenant, std::size_t slots) const;
  void mark_running(const Waiter& w);

  AdmissionOptions options_;
  std::uint64_t next_seq_ = 0;
  std::deque<Waiter> queue_;  ///< submission order
  std::unordered_map<std::uint64_t, Waiter> running_;
  std::unordered_map<std::string, TenantUsage> tenants_;
};

}  // namespace hyperdrive::svc
