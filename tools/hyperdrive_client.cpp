// hyperdrive_client — command-line client of hyperdrive_serve (DESIGN.md
// §14). Thin wrapper over svc::Client: one command per invocation, results on
// stdout, diagnostics on stderr.
//
//   hyperdrive_client --port-file p submit --tenant alice --spec prod.study
//   hyperdrive_client --port 7777 status 3
//   hyperdrive_client --port 7777 watch 1 2 3
//   hyperdrive_client --port 7777 result 3 --out result.csv
//   hyperdrive_client --port 7777 shutdown
//
// Exit codes: 0 success, 1 a failed --out write, 2 usage/connection error,
// 3 the server said no (rejected submission, unknown id, cancel refused).
#include <time.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "svc/client.hpp"
#include "util/atomic_file.hpp"
#include "util/cli_options.hpp"

using namespace hyperdrive;

namespace {

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: hyperdrive_client [connection flags] <command> [args]\n"
               "\n"
               "connection flags:\n"
               "  --host ADDR        server address  [127.0.0.1]\n"
               "  --port N           server port\n"
               "  --port-file FILE   read the port from FILE (written by\n"
               "                     hyperdrive_serve --port-file)\n"
               "  --timeout MS       per-call I/O timeout  [30000]\n"
               "  --retries N        connect attempts  [10]\n"
               "\n"
               "commands:\n"
               "  submit --tenant T --spec FILE   submit the study spec in FILE\n"
               "  cancel ID                       cancel a submission\n"
               "  status ID                       one submission's status row\n"
               "  list [--tenant T]               all (or one tenant's) submissions\n"
               "  watch ID...                     poll until every ID is terminal\n"
               "  result ID [--out FILE]          fetch the result CSV\n"
               "  timeline ID [--out FILE]        fetch the timeline CSV\n"
               "  metrics [--out FILE]            fetch the server metrics CSV\n"
               "  shutdown                        ask the server to exit\n");
}

void print_info(const svc::StudyInfo& info) {
  std::printf("id=%llu tenant=%s study=%s state=%s best=%.6f reached=%d ttt=%.6f "
              "total=%.6f%s%s\n",
              static_cast<unsigned long long>(info.id), info.tenant.c_str(),
              info.study_name.c_str(), svc::to_string(info.state), info.best_perf,
              info.reached_target ? 1 : 0, info.time_to_target_s, info.total_time_s,
              info.detail.empty() ? "" : " detail=", info.detail.c_str());
}

/// Prints `bytes`, or writes them to `out_file`. Returns the exit code: 0,
/// or 1 with an `error:` line when the write fails.
int write_output(const std::string& out_file, const std::string& bytes) {
  if (out_file.empty()) {
    std::fwrite(bytes.data(), 1, bytes.size(), stdout);
    return 0;
  }
  try {
    util::write_file(out_file, bytes);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();

/// A strict decimal in [lo, hi] (cli::Options::parse_uint: digits only).
bool parse_in_range(const std::string& text, std::uint64_t lo, std::uint64_t hi,
                    std::uint64_t& out) {
  return cli::Options::parse_uint(text, out) && out >= lo && out <= hi;
}

bool terminal(svc::StudyState s) {
  return s == svc::StudyState::Finished || s == svc::StudyState::Cancelled ||
         s == svc::StudyState::Failed;
}

void sleep_ms(int ms) {
  timespec ts{};
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = static_cast<long>(ms % 1000) * 1000000L;
  (void)::nanosleep(&ts, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  svc::ClientOptions copts;
  std::string port_file;
  int i = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    const auto need_number = [&](const char* flag, std::uint64_t lo, std::uint64_t hi) {
      const std::string text = need(flag);
      std::uint64_t value = 0;
      if (!parse_in_range(text, lo, hi, value)) {
        std::fprintf(stderr, "bad value for %s: '%s' (want %llu..%llu)\n", flag, text.c_str(),
                     static_cast<unsigned long long>(lo), static_cast<unsigned long long>(hi));
        std::exit(2);
      }
      return value;
    };
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else if (arg == "--host") {
      copts.host = need("--host");
    } else if (arg == "--port") {
      copts.port = static_cast<std::uint16_t>(need_number("--port", 1, 65535));
    } else if (arg == "--port-file") {
      port_file = need("--port-file");
    } else if (arg == "--timeout") {
      copts.io_timeout_ms = static_cast<int>(need_number("--timeout", 0, kIntMax));
    } else if (arg == "--retries") {
      copts.retries = static_cast<int>(need_number("--retries", 0, kIntMax));
    } else {
      break;  // first non-flag token is the command
    }
  }
  if (i >= argc) {
    usage(stderr);
    return 2;
  }
  if (!port_file.empty()) {
    std::ifstream in(port_file);
    unsigned port = 0;
    if (!(in >> port) || port == 0 || port > 65535) {
      std::fprintf(stderr, "cannot read a port from '%s'\n", port_file.c_str());
      return 2;
    }
    copts.port = static_cast<std::uint16_t>(port);
  }
  if (copts.port == 0) {
    std::fprintf(stderr, "--port or --port-file is required\n");
    return 2;
  }
  const std::string command = argv[i++];
  std::vector<std::string> rest(argv + i, argv + argc);

  try {
    svc::Client client(copts);

    if (command == "submit") {
      std::string tenant;
      std::string spec_file;
      for (std::size_t k = 0; k < rest.size(); ++k) {
        if (rest[k] == "--tenant" && k + 1 < rest.size()) tenant = rest[++k];
        else if (rest[k] == "--spec" && k + 1 < rest.size()) spec_file = rest[++k];
        else {
          std::fprintf(stderr, "submit: unexpected argument '%s'\n", rest[k].c_str());
          return 2;
        }
      }
      if (tenant.empty() || spec_file.empty()) {
        std::fprintf(stderr, "submit needs --tenant and --spec\n");
        return 2;
      }
      std::ifstream in(spec_file, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "cannot open '%s'\n", spec_file.c_str());
        return 2;
      }
      std::ostringstream text;
      text << in.rdbuf();
      const svc::Message reply = client.submit(tenant, text.str());
      if (reply.type == svc::MsgType::Rejected) {
        std::printf("rejected: %s\n", reply.text.c_str());
        return 3;
      }
      if (reply.type != svc::MsgType::Submitted) {
        std::fprintf(stderr, "unexpected reply: %s\n", reply.text.c_str());
        return 2;
      }
      std::printf("submitted id=%llu state=%s",
                  static_cast<unsigned long long>(reply.id), svc::to_string(reply.state));
      if (reply.state == svc::StudyState::Queued) {
        std::printf(" position=%u", reply.position);
      }
      std::printf("\n");
      return 0;
    }

    if (command == "cancel" || command == "status" || command == "result" ||
        command == "timeline") {
      if (rest.empty()) {
        std::fprintf(stderr, "%s needs an ID\n", command.c_str());
        return 2;
      }
      std::uint64_t id = 0;
      if (!cli::Options::parse_uint(rest[0], id)) {
        std::fprintf(stderr, "bad id '%s'\n", rest[0].c_str());
        return 2;
      }
      std::string out_file;
      for (std::size_t k = 1; k < rest.size(); ++k) {
        if (rest[k] == "--out" && k + 1 < rest.size()) out_file = rest[++k];
        else {
          std::fprintf(stderr, "%s: unexpected argument '%s'\n", command.c_str(),
                       rest[k].c_str());
          return 2;
        }
      }
      if (command == "cancel") {
        const svc::Message reply = client.cancel(id);
        if (reply.type != svc::MsgType::Ok) {
          std::fprintf(stderr, "cancel refused: %s\n", reply.text.c_str());
          return 3;
        }
        std::printf("cancelled id=%llu\n", static_cast<unsigned long long>(id));
        return 0;
      }
      if (command == "status") {
        const svc::Message reply = client.status(id);
        if (reply.type != svc::MsgType::StatusInfo) {
          std::fprintf(stderr, "%s\n", reply.text.c_str());
          return 3;
        }
        print_info(reply.info);
        return 0;
      }
      const svc::ArtifactKind kind = command == "result" ? svc::ArtifactKind::ResultCsv
                                                         : svc::ArtifactKind::TimelineCsv;
      const svc::Message reply = client.fetch(id, kind);
      if (reply.type != svc::MsgType::Artifact) {
        std::fprintf(stderr, "%s\n", reply.text.c_str());
        return 3;
      }
      return write_output(out_file, reply.text);
    }

    if (command == "list") {
      std::string tenant;
      for (std::size_t k = 0; k < rest.size(); ++k) {
        if (rest[k] == "--tenant" && k + 1 < rest.size()) tenant = rest[++k];
        else {
          std::fprintf(stderr, "list: unexpected argument '%s'\n", rest[k].c_str());
          return 2;
        }
      }
      const svc::Message reply = client.list(tenant);
      if (reply.type != svc::MsgType::ListResult) {
        std::fprintf(stderr, "%s\n", reply.text.c_str());
        return 2;
      }
      for (const svc::StudyInfo& info : reply.studies) print_info(info);
      return 0;
    }

    if (command == "watch") {
      std::vector<std::uint64_t> ids;
      int watch_timeout_s = 300;
      for (std::size_t k = 0; k < rest.size(); ++k) {
        if (rest[k] == "--watch-timeout" && k + 1 < rest.size()) {
          std::uint64_t seconds = 0;
          if (!parse_in_range(rest[++k], 0, kIntMax / 1000, seconds)) {
            std::fprintf(stderr, "bad --watch-timeout '%s'\n", rest[k].c_str());
            return 2;
          }
          watch_timeout_s = static_cast<int>(seconds);
          continue;
        }
        std::uint64_t id = 0;
        if (!cli::Options::parse_uint(rest[k], id)) {
          std::fprintf(stderr, "bad id '%s'\n", rest[k].c_str());
          return 2;
        }
        ids.push_back(id);
      }
      if (ids.empty()) {
        std::fprintf(stderr, "watch needs at least one ID\n");
        return 2;
      }
      bool all_ok = true;
      for (int waited_ms = 0;;) {
        std::vector<svc::StudyInfo> rows;
        bool all_terminal = true;
        for (const std::uint64_t id : ids) {
          const svc::Message reply = client.status(id);
          if (reply.type != svc::MsgType::StatusInfo) {
            std::fprintf(stderr, "%s\n", reply.text.c_str());
            return 3;
          }
          rows.push_back(reply.info);
          if (!terminal(reply.info.state)) all_terminal = false;
        }
        if (all_terminal) {
          for (const svc::StudyInfo& info : rows) {
            print_info(info);
            if (info.state == svc::StudyState::Failed) all_ok = false;
          }
          break;
        }
        if (waited_ms >= watch_timeout_s * 1000) {
          std::fprintf(stderr, "watch: timed out after %d s\n", watch_timeout_s);
          return 2;
        }
        sleep_ms(200);
        waited_ms += 200;
      }
      return all_ok ? 0 : 3;
    }

    if (command == "metrics") {
      std::string out_file;
      for (std::size_t k = 0; k < rest.size(); ++k) {
        if (rest[k] == "--out" && k + 1 < rest.size()) out_file = rest[++k];
        else {
          std::fprintf(stderr, "metrics: unexpected argument '%s'\n", rest[k].c_str());
          return 2;
        }
      }
      const svc::Message reply = client.metrics();
      if (reply.type != svc::MsgType::MetricsText) {
        std::fprintf(stderr, "%s\n", reply.text.c_str());
        return 2;
      }
      return write_output(out_file, reply.text);
    }

    if (command == "shutdown") {
      const svc::Message reply = client.shutdown();
      if (reply.type != svc::MsgType::Ok) {
        std::fprintf(stderr, "%s\n", reply.text.c_str());
        return 2;
      }
      std::printf("server shutting down\n");
      return 0;
    }

    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    usage(stderr);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hyperdrive_client: %s\n", e.what());
    return 2;
  }
}
