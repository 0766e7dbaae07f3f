#include "svc/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace hyperdrive::svc {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

Server::Server(StudyService& service, ServerOptions options)
    : service_(service), options_(std::move(options)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("bad listen address '" + options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("bind " + options_.host + ":" + std::to_string(options_.port) +
                             ": " + err);
  }
  if (::listen(listen_fd_, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("listen: " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  (void)::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  set_nonblocking(listen_fd_);

  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("pipe: " + std::string(std::strerror(errno)));
  }
  wake_rd_ = pipe_fds[0];
  wake_wr_ = pipe_fds[1];
  set_nonblocking(wake_rd_);
  set_nonblocking(wake_wr_);
}

Server::~Server() {
  request_stop();
  wait_shutdown();
  for (auto& [fd, conn] : conns_) {
    (void)conn;
    ::close(fd);
  }
  conns_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0) ::close(wake_wr_);
}

void Server::start() { thread_ = std::thread(&Server::loop, this); }

void Server::request_stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (wake_wr_ >= 0) {
    const char byte = 1;
    (void)!::write(wake_wr_, &byte, 1);
  }
}

void Server::wait_shutdown() {
  if (thread_.joinable()) thread_.join();
}

void Server::bump(const char* name, std::uint64_t n) const {
  if (options_.metrics != nullptr && n > 0) options_.metrics->counter(name).add(n);
}

Message Server::handle(const Message& request) {
  Message reply;
  switch (request.type) {
    case MsgType::Submit: {
      const SubmitOutcome out = service_.submit(request.tenant, request.text);
      if (!out.accepted) {
        reply.type = MsgType::Rejected;
        reply.text = out.reason;
        break;
      }
      reply.type = MsgType::Submitted;
      reply.id = out.id;
      reply.state = out.state;
      reply.position = static_cast<std::uint32_t>(out.queue_position);
      break;
    }
    case MsgType::Cancel: {
      std::string error;
      if (service_.cancel(request.id, error)) {
        reply.type = MsgType::Ok;
      } else {
        reply.type = MsgType::Error;
        reply.text = error;
      }
      break;
    }
    case MsgType::Status: {
      const auto info = service_.status(request.id);
      if (info.has_value()) {
        reply.type = MsgType::StatusInfo;
        reply.info = *info;
      } else {
        reply.type = MsgType::Error;
        reply.text = "unknown id " + std::to_string(request.id);
      }
      break;
    }
    case MsgType::List:
      reply.type = MsgType::ListResult;
      reply.studies = service_.list(request.tenant);
      break;
    case MsgType::Fetch: {
      std::string bytes;
      std::string error;
      if (service_.artifact(request.id, request.artifact, bytes, error)) {
        reply.type = MsgType::Artifact;
        reply.text = std::move(bytes);
      } else {
        reply.type = MsgType::Error;
        reply.text = error;
      }
      break;
    }
    case MsgType::Metrics: {
      reply.type = MsgType::MetricsText;
      if (options_.metrics != nullptr) {
        std::ostringstream os;
        options_.metrics->write_csv(os);
        reply.text = os.str();
      }
      break;
    }
    case MsgType::Shutdown:
      shutdown_seen_ = true;
      reply.type = MsgType::Ok;
      break;
    default:
      reply.type = MsgType::Error;
      reply.text = "unexpected message type";
      break;
  }
  return reply;
}

void Server::enqueue(Connection& conn, const Message& response) {
  const std::vector<std::uint8_t> frame = encode_frame(response);
  conn.out.insert(conn.out.end(), frame.begin(), frame.end());
  bump("svc.frames_tx");
}

void Server::loop() {
  std::vector<pollfd> fds;
  std::vector<std::uint8_t> buf(64 * 1024);
  while (true) {
    const bool stopping = stop_.load(std::memory_order_relaxed) || shutdown_seen_;
    bool flushing = false;
    for (const auto& [fd, conn] : conns_) {
      (void)fd;
      if (conn.out_pos < conn.out.size()) flushing = true;
    }
    if (stopping && !flushing) break;

    fds.clear();
    if (!stopping) fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_rd_, POLLIN, 0});
    for (const auto& [fd, conn] : conns_) {
      short events = stopping ? 0 : POLLIN;
      if (conn.out_pos < conn.out.size()) events |= POLLOUT;
      if (events != 0) fds.push_back({fd, events, 0});
    }

    const int n = ::poll(fds.data(), fds.size(), stopping ? 100 : 500);
    if (n < 0 && errno != EINTR) break;
    if (stopping && n == 0) break;  // flush stalled; don't hang shutdown
    if (n <= 0) continue;

    std::vector<int> to_close;
    for (const pollfd& p : fds) {
      if (p.fd == wake_rd_) {
        if (p.revents & POLLIN) {
          char drain[64];
          while (::read(wake_rd_, drain, sizeof drain) > 0) {
          }
        }
        continue;
      }
      if (p.fd == listen_fd_) {
        if ((p.revents & POLLIN) != 0) {
          for (;;) {
            const int cfd = ::accept(listen_fd_, nullptr, nullptr);
            if (cfd < 0) break;
            if (conns_.size() >= options_.max_connections) {
              ::close(cfd);
              bump("svc.connections_dropped");
              continue;
            }
            set_nonblocking(cfd);
            const int one = 1;
            (void)::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
            conns_.try_emplace(cfd);
            bump("svc.connections");
          }
        }
        continue;
      }

      const auto it = conns_.find(p.fd);
      if (it == conns_.end()) continue;
      Connection& conn = it->second;
      bool drop = (p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;

      if (!drop && (p.revents & POLLIN) != 0) {
        for (;;) {
          const ssize_t got = ::recv(p.fd, buf.data(), buf.size(), 0);
          if (got == 0) {
            drop = true;
            break;
          }
          if (got < 0) {
            if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) drop = true;
            break;
          }
          bump("svc.bytes_rx", static_cast<std::uint64_t>(got));
          std::vector<std::vector<std::uint8_t>> payloads;
          if (!conn.reader.feed(buf.data(), static_cast<std::size_t>(got), payloads)) {
            // Oversized length prefix: the framing itself is hostile; no
            // reply can be delimited reliably, so the connection just dies.
            bump("svc.decode_errors");
            drop = true;
            break;
          }
          for (const auto& payload : payloads) {
            bump("svc.frames_rx");
            const MessageDecodeResult decoded = decode_message(payload);
            if (!decoded.message.has_value()) {
              bump("svc.decode_errors");
              Message err;
              err.type = MsgType::Error;
              err.text = std::string("decode-error: ") + cluster::to_string(*decoded.error);
              enqueue(conn, err);
              conn.close_after_flush = true;
              break;
            }
            enqueue(conn, handle(*decoded.message));
            if (shutdown_seen_) conn.close_after_flush = true;
          }
          if (conn.close_after_flush) break;
        }
      }

      if (!drop && conn.out_pos < conn.out.size()) {
        for (;;) {
          const std::size_t left = conn.out.size() - conn.out_pos;
          if (left == 0) break;
          const ssize_t sent = ::send(p.fd, conn.out.data() + conn.out_pos, left, MSG_NOSIGNAL);
          if (sent < 0) {
            if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) drop = true;
            break;
          }
          conn.out_pos += static_cast<std::size_t>(sent);
          bump("svc.bytes_tx", static_cast<std::uint64_t>(sent));
        }
        if (conn.out_pos == conn.out.size()) {
          conn.out.clear();
          conn.out_pos = 0;
          if (conn.close_after_flush) drop = true;
        }
      }

      if (drop) to_close.push_back(p.fd);
    }
    for (const int fd : to_close) {
      ::close(fd);
      conns_.erase(fd);
    }
  }
}

}  // namespace hyperdrive::svc
