#include "cluster/messaging.hpp"

#include <algorithm>
#include <stdexcept>

namespace hyperdrive::cluster {

namespace {
/// Modelled wire size of one ack control message.
constexpr double kAckBytes = 64.0;
}  // namespace

std::string_view to_string(MessageType type) noexcept {
  switch (type) {
    case MessageType::StartJob: return "StartJob";
    case MessageType::SuspendJob: return "SuspendJob";
    case MessageType::TerminateJob: return "TerminateJob";
    case MessageType::ReportStat: return "ReportStat";
    case MessageType::SnapshotUpload: return "SnapshotUpload";
    case MessageType::SnapshotDownload: return "SnapshotDownload";
    case MessageType::Heartbeat: return "Heartbeat";
    case MessageType::Ack: return "Ack";
  }
  return "?";
}

MessageBus::MessageBus(sim::Simulation& simulation, MessageBusOptions options,
                       std::uint64_t seed)
    : simulation_(simulation),
      options_(options),
      rng_(util::derive_seed(seed, 0xb05)) {}

EndpointId MessageBus::register_endpoint(std::string name, Handler handler) {
  const EndpointId id = next_id_++;
  Endpoint endpoint;
  endpoint.name = std::move(name);
  endpoint.handler = std::move(handler);
  endpoints_.emplace(id, std::move(endpoint));
  return id;
}

void MessageBus::set_endpoint_up(EndpointId id, bool up) {
  const auto it = endpoints_.find(id);
  if (it == endpoints_.end()) throw std::out_of_range("unknown endpoint");
  it->second.up = up;
}

const std::string& MessageBus::endpoint_name(EndpointId id) const {
  const auto it = endpoints_.find(id);
  if (it == endpoints_.end()) throw std::out_of_range("unknown endpoint");
  return it->second.name;
}

std::size_t MessageBus::dedup_entries(EndpointId id) const {
  const auto it = endpoints_.find(id);
  if (it == endpoints_.end()) throw std::out_of_range("unknown endpoint");
  return it->second.seen.size();
}

util::SimTime MessageBus::transit_time(const Message& message) {
  const double latency_s = std::clamp(
      rng_.lognormal(options_.latency_mu, options_.latency_sigma), options_.latency_min_s,
      options_.latency_max_s);
  const double transfer_s = options_.bandwidth_bps > 0.0
                                ? message.payload_bytes / options_.bandwidth_bps
                                : 0.0;
  util::SimTime transit = util::SimTime::seconds(latency_s + transfer_s);
  if (injector_ != nullptr) {
    const util::SimTime extra = injector_->extra_delay(message.type);
    if (extra > util::SimTime::zero()) {
      ++stats_.delayed;
      transit += extra;
    }
  }
  return transit;
}

std::uint64_t MessageBus::send(Message message, FailureHandler on_failure) {
  if (endpoints_.find(message.to) == endpoints_.end()) {
    throw std::out_of_range("unknown message destination");
  }

  message.sent_at = simulation_.now();
  message.seq = next_seq_++;
  const std::uint64_t seq = message.seq;

  ++stats_.messages;
  stats_.bytes += message.payload_bytes;
  ++stats_.per_type[message.type];

  // Heartbeats ride the fire-and-forget path even in reliability mode: a
  // liveness probe that the bus retransmitted on the node's behalf would mask
  // exactly the silence the watchdog exists to detect.
  if (options_.reliability.enabled && message.type != MessageType::Ack &&
      message.type != MessageType::Heartbeat) {
    Transmission tx;
    tx.message = std::move(message);
    tx.on_failure = std::move(on_failure);
    tx.timeout_s = options_.reliability.ack_timeout_s;
    transmissions_.emplace(seq, std::move(tx));
    attempt(seq);
    return seq;
  }

  // Fire-and-forget path — identical to the original fabric when no fault
  // injector is attached (no extra RNG draws, same latency stream).
  if (injector_ != nullptr && injector_->should_drop(message.type)) {
    ++stats_.dropped;
    return seq;
  }
  const util::SimTime transit = transit_time(message);
  const bool duplicate = injector_ != nullptr && injector_->should_duplicate(message.type);
  ++unreliable_pending_;
  simulation_.schedule_after(transit, [this, message] {
    --unreliable_pending_;
    deliver(message, false);
  });
  if (duplicate) {
    ++stats_.duplicates_delivered;
    const util::SimTime again = transit_time(message);
    ++unreliable_pending_;
    simulation_.schedule_after(again, [this, message] {
      --unreliable_pending_;
      deliver(message, false);
    });
  }
  return seq;
}

void MessageBus::attempt(std::uint64_t seq) {
  const auto it = transmissions_.find(seq);
  if (it == transmissions_.end()) return;
  Transmission& tx = it->second;
  ++tx.attempts;
  if (tx.attempts > 1) {
    ++stats_.retransmissions;
    stats_.retransmitted_bytes += tx.message.payload_bytes;
  }

  if (injector_ != nullptr && injector_->should_drop(tx.message.type)) {
    ++stats_.dropped;
  } else {
    const util::SimTime transit = transit_time(tx.message);
    const Message copy = tx.message;
    simulation_.schedule_after(transit, [this, copy] { deliver(copy, true); });
    if (injector_ != nullptr && injector_->should_duplicate(tx.message.type)) {
      const util::SimTime again = transit_time(tx.message);
      simulation_.schedule_after(again, [this, copy] { deliver(copy, true); });
    }
  }

  tx.timeout_event = simulation_.schedule_after(
      util::SimTime::seconds(tx.timeout_s), [this, seq] { on_ack_timeout(seq); });
  tx.timeout_s *= kRetransmitBackoff;
}

void MessageBus::deliver(const Message& message, bool reliable) {
  const auto it = endpoints_.find(message.to);
  if (it == endpoints_.end()) return;
  Endpoint& endpoint = it->second;
  if (!endpoint.up) {
    // The destination's node is down; no handler, no ack — the sender's
    // retransmission loop keeps trying until the node restarts or it gives up.
    ++stats_.dropped_endpoint_down;
    return;
  }

  if (!reliable) {
    endpoint.handler(message);
    return;
  }

  if (endpoint.seen.insert(message.seq).second) {
    endpoint.handler(message);
  } else {
    ++stats_.duplicates_suppressed;
  }

  // Ack even suppressed duplicates: the retransmission that produced the
  // duplicate means the original ack was lost (or late) — re-acking is what
  // stops the sender. Acks are control traffic, never retried themselves.
  ++stats_.acks_sent;
  stats_.ack_bytes += kAckBytes;
  if (injector_ != nullptr && injector_->should_drop(MessageType::Ack)) {
    ++stats_.dropped;
    return;
  }
  Message ack;
  ack.type = MessageType::Ack;
  ack.payload_bytes = kAckBytes;
  const util::SimTime transit = transit_time(ack);
  const std::uint64_t seq = message.seq;
  simulation_.schedule_after(transit, [this, seq] { handle_ack(seq); });
}

void MessageBus::handle_ack(std::uint64_t seq) {
  const auto it = transmissions_.find(seq);
  if (it == transmissions_.end()) return;  // already acked or given up
  simulation_.cancel(it->second.timeout_event);
  transmissions_.erase(it);
  if (transmissions_.empty() && on_drain_) on_drain_();
}

void MessageBus::on_ack_timeout(std::uint64_t seq) {
  const auto it = transmissions_.find(seq);
  if (it == transmissions_.end()) return;
  Transmission& tx = it->second;
  if (tx.attempts >= options_.reliability.max_attempts) {
    ++stats_.undeliverable;
    const FailureHandler on_failure = std::move(tx.on_failure);
    const Message message = std::move(tx.message);
    transmissions_.erase(it);
    if (on_failure) on_failure(message);
    // on_failure may have sent a recovery message; only report drained if
    // the bus is still quiescent afterwards.
    if (transmissions_.empty() && on_drain_) on_drain_();
    return;
  }
  attempt(seq);
}

}  // namespace hyperdrive::cluster
