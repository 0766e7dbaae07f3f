#include "svc/admission.hpp"

#include <algorithm>
#include <limits>

namespace hyperdrive::svc {

AdmissionController::AdmissionController(AdmissionOptions options) : options_(std::move(options)) {}

std::size_t AdmissionController::tenant_running_slots(const std::string& tenant) const {
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.running_slots;
}

std::size_t AdmissionController::tenant_queued(const std::string& tenant) const {
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.queued;
}

bool AdmissionController::can_run_now(const std::string& tenant, std::size_t slots) const {
  if (running_.size() >= options_.max_running) return false;
  return tenant_running_slots(tenant) + slots <= options_.tenant.max_slots;
}

void AdmissionController::mark_running(const Waiter& w) {
  tenants_[w.tenant].running_slots += w.slots;
  running_.emplace(w.id, w);
}

AdmissionDecision AdmissionController::submit(std::uint64_t id, const std::string& tenant,
                                              std::size_t slots, util::SimTime deadline) {
  AdmissionDecision d;
  // A study asking for more slots than its tenant may ever hold can never
  // run, so queueing it would wedge the queue; reject it outright.
  if (slots > options_.tenant.max_slots) {
    d.verdict = AdmissionVerdict::Reject;
    d.reason = "tenant-quota-slots: need=" + std::to_string(slots) +
               " limit=" + std::to_string(options_.tenant.max_slots);
    return d;
  }
  // Run immediately only when nothing is already waiting — a newcomer must
  // not overtake the queue even if its tenant happens to have headroom.
  if (queue_.empty() && can_run_now(tenant, slots)) {
    Waiter w{id, tenant, slots, deadline, next_seq_++};
    mark_running(w);
    d.verdict = AdmissionVerdict::Run;
    return d;
  }
  if (queue_.size() >= options_.max_queued) {
    d.verdict = AdmissionVerdict::Reject;
    d.reason = "server-full: running=" + std::to_string(running_.size()) + "/" +
               std::to_string(options_.max_running) + " queued=" + std::to_string(queue_.size()) +
               "/" + std::to_string(options_.max_queued);
    return d;
  }
  if (tenant_queued(tenant) >= options_.tenant.max_queued) {
    d.verdict = AdmissionVerdict::Reject;
    d.reason = "tenant-quota-queued: tenant=" + tenant +
               " queued=" + std::to_string(tenant_queued(tenant)) + "/" +
               std::to_string(options_.tenant.max_queued);
    return d;
  }
  queue_.push_back(Waiter{id, tenant, slots, deadline, next_seq_++});
  tenants_[tenant].queued += 1;
  d.verdict = AdmissionVerdict::Queue;
  d.queue_position = queue_.size();
  return d;
}

bool AdmissionController::release(std::uint64_t id) {
  const auto it = running_.find(id);
  if (it == running_.end()) return false;
  auto& usage = tenants_[it->second.tenant];
  usage.running_slots -= std::min(usage.running_slots, it->second.slots);
  running_.erase(it);
  return true;
}

bool AdmissionController::cancel_queued(std::uint64_t id) {
  const auto it = std::find_if(queue_.begin(), queue_.end(),
                               [&](const Waiter& w) { return w.id == id; });
  if (it == queue_.end()) return false;
  auto& usage = tenants_[it->tenant];
  usage.queued -= std::min<std::size_t>(usage.queued, 1);
  queue_.erase(it);
  return true;
}

std::optional<std::uint64_t> AdmissionController::next_runnable() {
  if (running_.size() >= options_.max_running) return std::nullopt;

  auto best = queue_.end();
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (!can_run_now(it->tenant, it->slots)) continue;
    if (best == queue_.end()) {
      best = it;
      if (options_.arbitration == core::ArbitrationMode::StaticPartition) break;  // FIFO
      continue;
    }
    switch (options_.arbitration) {
      case core::ArbitrationMode::StaticPartition:
        break;  // unreachable: FIFO takes the first candidate
      case core::ArbitrationMode::FairShare: {
        // The tenant holding the fewest running slots goes first; queue order
        // (seq) breaks ties, so equal tenants behave exactly like FIFO.
        const std::size_t best_held = tenant_running_slots(best->tenant);
        const std::size_t cand_held = tenant_running_slots(it->tenant);
        if (cand_held < best_held) best = it;
        break;
      }
      case core::ArbitrationMode::DeadlineAware:
      case core::ArbitrationMode::Cost:  // cost extends deadline-aware
        if (it->deadline.to_seconds() < best->deadline.to_seconds()) best = it;
        break;
    }
  }
  if (best == queue_.end()) return std::nullopt;

  const Waiter w = *best;
  auto& usage = tenants_[w.tenant];
  usage.queued -= std::min<std::size_t>(usage.queued, 1);
  queue_.erase(best);
  mark_running(w);
  return w.id;
}

}  // namespace hyperdrive::svc
