// Extension: service front-end throughput (DESIGN.md §14). Measures what the
// always-on front-end costs on top of the coordinator, over real TCP
// loopback with one Client per tenant:
//
//   * submission throughput — round-trip submit rate against a gate server
//     (--max-running 0 equivalent: everything queues, so the measurement is
//     pure protocol + admission + bookkeeping, no study compute);
//   * time-to-first-grant — wall time from the first submit of a batch (one
//     tiny study per tenant, max_running=1) until the server reports the
//     first study running, plus the mean queue wait the svc.queue_wait_ms
//     histogram accumulated while the rest of the batch drained.
//
// Both sweeps run at 1/2/4/8 tenants (1/2 under --smoke).
#include "bench_common.hpp"

#include <chrono>
#include <memory>
#include <cstdio>
#include <string>
#include <vector>

#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"

using namespace hyperdrive;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(const Clock::time_point& from) {
  return std::chrono::duration<double, std::milli>(Clock::now() - from).count();
}

// Tiny spec: admission/protocol dominate, the study itself is trivial.
std::string tiny_spec(const std::string& name) {
  return "study " + name + "\nworkload cifar10\npolicy pop\nconfigs 2\nseed 3\n";
}

std::unique_ptr<svc::Client> make_client(std::uint16_t port) {
  svc::ClientOptions copts;
  copts.port = port;
  copts.retries = 3;
  return std::make_unique<svc::Client>(copts);
}

/// Submit-rate sweep cell: `per_tenant` submissions from each of `tenants`
/// round-robin clients against a queue-everything server.
double submit_rate(std::size_t tenants, std::size_t per_tenant) {
  svc::ServiceOptions sopts;  // memory-only: no journal I/O in this arm
  sopts.admission.max_running = 0;
  sopts.admission.max_queued = tenants * per_tenant + 1;
  sopts.admission.tenant.max_queued = per_tenant + 1;
  svc::StudyService service(sopts);
  svc::Server server(service, {});
  server.start();

  std::vector<std::unique_ptr<svc::Client>> clients;
  clients.reserve(tenants);
  for (std::size_t t = 0; t < tenants; ++t) clients.push_back(make_client(server.port()));

  const auto t0 = Clock::now();
  for (std::size_t k = 0; k < per_tenant; ++k) {
    for (std::size_t t = 0; t < tenants; ++t) {
      const svc::Message reply =
          clients[t]->submit("tenant-" + std::to_string(t), tiny_spec("s"));
      if (reply.type != svc::MsgType::Submitted) {
        std::fprintf(stderr, "FAIL: submit rejected: %s\n", reply.text.c_str());
        std::exit(1);
      }
    }
  }
  const double wall = ms_since(t0);
  server.request_stop();
  server.wait_shutdown();
  service.stop();
  return 1000.0 * static_cast<double>(tenants * per_tenant) / wall;
}

struct GrantTimes {
  double first_grant_ms = 0.0;
  double queue_wait_mean_ms = 0.0;
};

/// Grant-latency sweep cell: one tiny study per tenant through a
/// max_running=1 server; the first submit is granted inline, the rest queue
/// and drain one at a time while the histogram accumulates their waits.
GrantTimes grant_latency(std::size_t tenants) {
  obs::MetricsRegistry registry;
  svc::preregister_service_metrics(registry);
  svc::ServiceOptions sopts;
  sopts.admission.max_running = 1;
  sopts.admission.max_queued = tenants + 1;
  sopts.admission.tenant.max_queued = 2;
  sopts.obs.metrics = &registry;
  svc::StudyService service(sopts);
  svc::Server server(service, {});
  server.start();

  GrantTimes out;
  {
    const auto client = make_client(server.port());
    const auto t0 = Clock::now();
    for (std::size_t t = 0; t < tenants; ++t) {
      const svc::Message reply =
          client->submit("tenant-" + std::to_string(t), tiny_spec("s"));
      if (reply.type != svc::MsgType::Submitted) {
        std::fprintf(stderr, "FAIL: submit rejected: %s\n", reply.text.c_str());
        std::exit(1);
      }
      if (t == 0) {
        if (reply.state != svc::StudyState::Running) {
          std::fprintf(stderr, "FAIL: first submission was not granted inline\n");
          std::exit(1);
        }
        out.first_grant_ms = ms_since(t0);
      }
    }
  }
  service.wait_idle();
  server.request_stop();
  server.wait_shutdown();
  service.stop();

  const auto& wait = registry.histogram("svc.queue_wait_ms",
                                        {1.0, 10.0, 100.0, 1000.0, 10000.0});
  if (wait.count() > 0) out.queue_wait_mean_ms = wait.sum() / wait.count();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_bench_args(argc, argv);
  bench::print_header("Extension: service front-end throughput",
                      "submit rate + grant latency over TCP loopback vs tenant count");

  const std::vector<std::size_t> tenant_counts =
      options.smoke ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 4, 8};
  const std::size_t per_tenant = options.smoke ? 10 : 50;

  std::printf("\n%-8s %16s %18s %20s\n", "tenants", "submits/s", "first-grant (ms)",
              "queue-wait mean (ms)");
  for (const std::size_t tenants : tenant_counts) {
    const double rate = submit_rate(tenants, per_tenant);
    const GrantTimes grant = grant_latency(tenants);
    std::printf("%-8zu %16.1f %18.3f %20.3f\n", tenants, rate, grant.first_grant_ms,
                grant.queue_wait_mean_ms);
  }
  return 0;
}
