// Simulated RPC messaging between the HyperDrive scheduler and the Node
// Agents (§5: "All communication between the scheduler, node agents, and
// applications is done via GRPC").
//
// The MessageBus delivers typed messages over the discrete-event simulation
// with a per-message latency (network + RPC overhead) plus a serialization
// delay proportional to the payload size (snapshot uploads are MBs, stat
// reports are bytes). It also keeps the traffic accounting a deployment
// would export as metrics: message and byte counters per type.
//
// Reliability layer: with ReliabilityOptions::enabled the bus implements an
// at-least-once delivery protocol hardened against an attached FaultInjector
// (drop / duplication / extra delay per MessageType, endpoints going down
// when their node crashes):
//   * every data message is acked by the receiving bus end; the sender
//     retransmits on an exponential-backoff timeout until acked or
//     max_attempts is exhausted (then an optional per-send failure callback
//     fires so the caller can recover, e.g. requeue a job whose snapshot
//     upload was lost);
//   * receivers deduplicate by sequence number, so retransmissions and
//     injected duplicates invoke the application handler exactly once;
//   * retries, retransmitted bytes and ack traffic are accounted separately
//     in MessageBusStats so overhead-under-faults is reportable.
// With reliability disabled (the default) the bus behaves exactly like the
// original fire-and-forget fabric — byte-for-byte, since no extra RNG draws
// happen unless an injector is attached.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "cluster/fault_injector.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace hyperdrive::cluster {

enum class MessageType {
  StartJob,          // scheduler -> agent
  SuspendJob,        // scheduler -> agent
  TerminateJob,      // scheduler -> agent
  ReportStat,        // agent -> scheduler (ApplicationStat upcall payload)
  SnapshotUpload,    // agent -> scheduler/storage
  SnapshotDownload,  // storage -> agent (resume)
  Heartbeat,         // agent -> scheduler (liveness probe; never retried)
  Ack,
};

[[nodiscard]] std::string_view to_string(MessageType type) noexcept;

using EndpointId = std::uint32_t;

struct Message {
  MessageType type = MessageType::Ack;
  EndpointId from = 0;
  EndpointId to = 0;
  std::uint64_t job_id = 0;
  double payload_bytes = 0.0;
  /// Opaque application payload (e.g. the AppStat behind a ReportStat).
  /// Handlers downcast with std::static_pointer_cast.
  std::shared_ptr<const void> payload;
  util::SimTime sent_at = util::SimTime::zero();
  std::uint64_t seq = 0;
};

/// Retransmit-timeout growth per attempt (exponential backoff).
inline constexpr double kRetransmitBackoff = 2.0;

/// Ack-based retransmission parameters (only used when `enabled`).
struct ReliabilityOptions {
  bool enabled = false;
  /// Initial retransmit timeout; doubles (x kRetransmitBackoff) after every
  /// attempt.
  double ack_timeout_s = 0.25;
  /// Total delivery attempts (first send + retries) before giving up.
  std::size_t max_attempts = 8;
};

struct MessageBusOptions {
  /// Base one-way latency: lognormal(mu, sigma) seconds clamped to
  /// [min_s, max_s]. Defaults model a ~1 ms LAN RPC.
  double latency_mu = -6.9;
  double latency_sigma = 0.3;
  double latency_min_s = 2e-4;
  double latency_max_s = 0.01;
  /// Serialization/transfer bandwidth (bytes/second); 0 = infinite.
  double bandwidth_bps = 1.25e9;
  ReliabilityOptions reliability;
};

struct MessageBusStats {
  std::uint64_t messages = 0;  ///< logical sends (first attempts)
  double bytes = 0.0;          ///< payload bytes of logical sends
  std::map<MessageType, std::uint64_t> per_type;
  // --- reliability / fault accounting ------------------------------------
  std::uint64_t retransmissions = 0;
  double retransmitted_bytes = 0.0;
  std::uint64_t acks_sent = 0;
  double ack_bytes = 0.0;
  std::uint64_t dropped = 0;                ///< injected in-flight losses
  std::uint64_t dropped_endpoint_down = 0;  ///< arrived at a crashed endpoint
  std::uint64_t duplicates_suppressed = 0;  ///< dedup hits at the receiver
  std::uint64_t duplicates_delivered = 0;   ///< injected dups handed to handlers
                                            ///< (only without reliability)
  std::uint64_t delayed = 0;                ///< messages given injected delay
  std::uint64_t undeliverable = 0;          ///< gave up after max_attempts
};

class MessageBus {
 public:
  using Handler = std::function<void(const Message&)>;
  /// Invoked (reliability mode only) when a message exhausts max_attempts.
  using FailureHandler = std::function<void(const Message&)>;

  MessageBus(sim::Simulation& simulation, MessageBusOptions options, std::uint64_t seed);

  /// Attach a fault injector; nullptr detaches. The bus does not own it.
  void set_fault_injector(FaultInjector* injector) noexcept { injector_ = injector; }

  /// Invoked whenever the last in-flight reliable transmission settles (acked
  /// or given up). Lets the owner re-evaluate quiescence: the final event of
  /// an experiment is often the last stat report's ack, which otherwise ends
  /// inside the bus with nobody left to notice the cluster is idle.
  void set_drain_handler(std::function<void()> handler) noexcept {
    on_drain_ = std::move(handler);
  }

  /// Register a named endpoint; messages addressed to the returned id invoke
  /// `handler` after the modelled delay. Names are for diagnostics only.
  EndpointId register_endpoint(std::string name, Handler handler);

  /// Mark an endpoint down (its node crashed): deliveries are dropped until
  /// it is marked up again. Throws std::out_of_range for unknown endpoints.
  void set_endpoint_up(EndpointId id, bool up);

  /// Send a message. Delivery time = now + latency + payload/bandwidth
  /// (+ injected delay). Returns the assigned sequence number. Throws
  /// std::out_of_range for an unknown destination. In reliability mode the
  /// message is retransmitted until acked; `on_failure` (optional) fires if
  /// every attempt is lost.
  std::uint64_t send(Message message, FailureHandler on_failure = nullptr);

  [[nodiscard]] const MessageBusStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::string& endpoint_name(EndpointId id) const;
  /// Messages still in the fabric: reliable sends neither acked nor given
  /// up, plus fire-and-forget deliveries not yet handed to their endpoint.
  /// The cluster's quiescence check (DESIGN.md §9) relies on this covering
  /// both paths — a completing job's final stat report must keep its run
  /// alive until delivered.
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return transmissions_.size() + unreliable_pending_;
  }
  /// Size of an endpoint's receiver-side dedup table (diagnostics: a message
  /// that exhausts its retries must leave no entry behind). Throws
  /// std::out_of_range for unknown endpoints.
  [[nodiscard]] std::size_t dedup_entries(EndpointId id) const;

 private:
  struct Endpoint {
    std::string name;
    Handler handler;
    bool up = true;
    /// Sequence numbers already delivered to this endpoint (dedup state;
    /// populated only in reliability mode).
    std::unordered_set<std::uint64_t> seen;
  };

  struct Transmission {
    Message message;
    FailureHandler on_failure;
    std::size_t attempts = 0;
    double timeout_s = 0.0;
    sim::EventHandle timeout_event = 0;
  };

  [[nodiscard]] util::SimTime transit_time(const Message& message);
  void attempt(std::uint64_t seq);
  void deliver(const Message& message, bool reliable);
  void handle_ack(std::uint64_t seq);
  void on_ack_timeout(std::uint64_t seq);

  sim::Simulation& simulation_;
  MessageBusOptions options_;
  util::Rng rng_;
  FaultInjector* injector_ = nullptr;
  std::function<void()> on_drain_;
  std::map<EndpointId, Endpoint> endpoints_;
  std::unordered_map<std::uint64_t, Transmission> transmissions_;
  EndpointId next_id_ = 1;
  std::uint64_t next_seq_ = 1;
  /// Fire-and-forget deliveries scheduled but not yet delivered.
  std::size_t unreliable_pending_ = 0;
  MessageBusStats stats_;
};

}  // namespace hyperdrive::cluster
