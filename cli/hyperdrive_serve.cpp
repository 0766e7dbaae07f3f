// hyperdrive_serve — the always-on multi-tenant service front-end (DESIGN.md
// §14). Wraps StudyService + Server around the crash-recoverable coordinator:
// tenants submit study specs over TCP, an admission controller enforces
// server-wide and per-tenant quotas, and every admitted study runs on the
// deterministic sim clock with durable checkpoints, so a SIGKILL'd server
// resumes all in-flight studies byte-identically on restart.
//
//   hyperdrive_serve --state-dir /var/lib/hd --port 7777
//   hyperdrive_serve --state-dir d --port 0 --port-file p --max-running 2
//                    --tenant-max-slots 8 --arbitration fair   (one command)
#include <csignal>
#include <cstdio>
#include <string>

#include "svc/server.hpp"
#include "svc/service.hpp"
#include "util/atomic_file.hpp"
#include "util/cli_options.hpp"

using namespace hyperdrive;

namespace {

struct ServeConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string port_file;
  std::size_t machines = 4;
  std::uint64_t seed = 1;
  std::size_t max_running = 4;
  std::size_t max_queue = 16;
  std::size_t tenant_max_slots = 16;
  std::size_t tenant_max_queued = 8;
  std::string arbitration = "fair";
  std::string tenants;
  std::string state_dir;
  double checkpoint_every_s = 0.0;
  std::size_t kill_after_checkpoints = 0;
  std::size_t max_connections = 64;
  std::string metrics_out;
};

cli::Options make_options(ServeConfig& config) {
  cli::Options options("hyperdrive_serve",
                       "always-on multi-tenant study service (README \"Service mode\")");
  options.section("endpoint (defaults in brackets)");
  options.bind("--host", "ADDR", "listen address  [127.0.0.1]", config.host);
  options.bind("--port", "N", "TCP port, 0 = ephemeral  [0]", config.port);
  options.bind("--port-file", "FILE",
               "write the bound port to FILE once listening\n"
               "(how scripts discover an ephemeral port)",
               config.port_file);
  options.bind("--max-connections", "N", "concurrent client connections  [64]",
               config.max_connections);

  options.section("study execution (mirrors batch-mode hyperdrive_cli)");
  // Zero machines would journal every submission and then fail its run, so
  // the flag rejects it like a malformed number.
  options.add("--machines", "N", "machine slots per study cluster  [4]",
              [&config](const std::string& text) {
                std::uint64_t n = 0;
                if (!cli::Options::parse_uint(text, n) || n == 0) return false;
                config.machines = static_cast<std::size_t>(n);
                return true;
              });
  options.bind("--seed", "S", "base seed for every study manager  [1]", config.seed);
  options.bind("--checkpoint-every", "SECONDS",
               "durable checkpoint cadence per study, simulated\n"
               "seconds (0 = only the final frame)  [0]",
               config.checkpoint_every_s);
  options.bind("--kill-after-checkpoints", "N",
               "testing: SIGKILL this process right after the Nth\n"
               "durable checkpoint write (CI serve smoke)  [0]",
               config.kill_after_checkpoints);

  options.section("admission control & per-tenant quotas (DESIGN.md \"Service\")");
  options.bind("--max-running", "N",
               "concurrently running studies; 0 journals submissions\n"
               "without running any (a restart on the same --state-dir\n"
               "runs them)  [4]",
               config.max_running);
  options.bind("--max-queue", "N", "server-wide queue depth  [16]", config.max_queue);
  options.bind("--tenant-max-slots", "N",
               "machine slots one tenant's running studies may\n"
               "hold in total  [16]",
               config.tenant_max_slots);
  options.bind("--tenant-max-queued", "N", "queued studies per tenant  [8]",
               config.tenant_max_queued);
  options.bind("--arbitration", "MODE",
               "static|fair|deadline|cost queue arbitration across\n"
               "tenants  [fair]",
               config.arbitration);
  options.bind("--tenants", "A,B,...",
               "comma-separated tenant allowlist; submissions from\n"
               "other tenants are rejected (\"unknown-tenant: <t>\").\n"
               "Empty (default) admits any tenant",
               config.tenants);

  options.section("durability & observability");
  options.bind("--state-dir", "DIR",
               "durable journal root (required): submissions,\n"
               "checkpoints, artifacts; restarting with the same DIR\n"
               "resumes every unfinished study",
               config.state_dir);
  options.bind("--metrics-out", "FILE", "write the svc.* metrics snapshot CSV on exit",
               config.metrics_out);
  return options;
}

svc::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->request_stop();  // atomic flag + pipe write
}

}  // namespace

int main(int argc, char** argv) {
  ServeConfig config;
  const cli::Options options = make_options(config);
  if (!options.parse(argc, argv)) return 2;
  if (config.state_dir.empty()) {
    std::fprintf(stderr, "--state-dir is required (the service journal must be durable)\n");
    return 2;
  }

  svc::ServiceOptions sopts;
  sopts.machines = config.machines;
  sopts.seed = config.seed;
  sopts.state_dir = config.state_dir;
  sopts.checkpoint_every_s = config.checkpoint_every_s;
  sopts.kill_after_checkpoints = config.kill_after_checkpoints;
  sopts.admission.max_running = config.max_running;
  sopts.admission.max_queued = config.max_queue;
  sopts.admission.tenant.max_slots = config.tenant_max_slots;
  sopts.admission.tenant.max_queued = config.tenant_max_queued;
  for (std::size_t start = 0; start < config.tenants.size();) {
    const std::size_t comma = config.tenants.find(',', start);
    const std::size_t end = comma == std::string::npos ? config.tenants.size() : comma;
    if (end > start) {
      sopts.allowed_tenants.push_back(config.tenants.substr(start, end - start));
    }
    start = end + 1;
  }
  try {
    sopts.admission.arbitration = core::arbitration_from_string(config.arbitration);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  obs::MetricsRegistry registry;
  svc::preregister_service_metrics(registry);
  sopts.obs.metrics = &registry;

  try {
    svc::StudyService service(sopts);
    if (service.resumed_count() > 0) {
      std::printf("resumed %zu unfinished submission(s) from %s\n",
                  service.resumed_count(), config.state_dir.c_str());
    }

    svc::ServerOptions server_opts;
    server_opts.host = config.host;
    server_opts.port = config.port;
    server_opts.max_connections = config.max_connections;
    server_opts.metrics = &registry;
    svc::Server server(service, server_opts);
    g_server = &server;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    server.start();
    std::printf("listening on %s:%u\n", config.host.c_str(),
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);
    if (!config.port_file.empty()) {
      // Atomic: a script polling for the file never reads it half-written.
      util::write_file_atomic(config.port_file, std::to_string(server.port()) + "\n");
    }

    server.wait_shutdown();
    g_server = nullptr;
    std::printf("shutting down: letting running studies finish\n");
    service.stop();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hyperdrive_serve: %s\n", e.what());
    return 1;
  }
  if (!config.metrics_out.empty()) {
    try {
      registry.save_csv_file(config.metrics_out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::printf("metrics snapshot written to %s\n", config.metrics_out.c_str());
  }
  return 0;
}
