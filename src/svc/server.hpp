// Server — the TCP front of hyperdrive_serve (DESIGN.md §14): a poll()-based
// event loop on one thread, speaking the svc wire protocol to any number of
// concurrent clients and translating each request into one StudyService
// call. Connections are independent: each owns a FrameReader (incremental
// framing with the pre-allocation bound check) and an outbound byte queue;
// a decode failure answers with an Error frame and drops the connection, an
// oversized length prefix drops it without a reply (the framing itself can
// no longer be trusted).
//
// The server never blocks on a study: StudyService runs studies on its own
// worker threads, so submit/status/list round-trips stay fast while runs are
// in flight.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"

namespace hyperdrive::svc {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral (read the bound port back via port()).
  std::uint16_t port = 0;
  /// Accepted-but-over-limit connections are closed immediately (and counted
  /// as svc.connections_dropped).
  std::size_t max_connections = 64;
  /// svc.connection/frame/byte counters + the Metrics request's snapshot.
  obs::MetricsRegistry* metrics = nullptr;
};

class Server {
 public:
  /// Binds and listens; throws std::runtime_error on socket failure.
  Server(StudyService& service, ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawn the event-loop thread. Call once.
  void start();
  /// Ask the loop to exit (wakes poll); idempotent, callable from signal-ish
  /// contexts via a flag + self-pipe write.
  void request_stop();
  /// Block until the loop exited (protocol Shutdown or request_stop).
  void wait_shutdown();

  /// The bound TCP port (resolves port 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  struct Connection {
    FrameReader reader;  ///< bounded by kMaxFrameBytes
    std::vector<std::uint8_t> out;
    std::size_t out_pos = 0;
    bool close_after_flush = false;
  };

  void loop();
  /// Handle one decoded request; returns the response message.
  [[nodiscard]] Message handle(const Message& request);
  void enqueue(Connection& conn, const Message& response);
  void bump(const char* name, std::uint64_t n = 1) const;

  StudyService& service_;
  ServerOptions options_;
  int listen_fd_ = -1;
  int wake_rd_ = -1;
  int wake_wr_ = -1;
  std::uint16_t port_ = 0;
  std::map<int, Connection> conns_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  bool shutdown_seen_ = false;  ///< loop-thread only
};

}  // namespace hyperdrive::svc
