// LogCapture — routes util::log lines through the obs layer for the
// lifetime of the guard: each emitted line becomes an EventKind::LogMessage
// event ("component: message" in `detail`, level name in `study`-free
// metadata via the message text) and bumps the "log.lines" counter. Lines
// stop going to stderr while captured, which is how benches silence the
// logger without recompiling.
#pragma once

#include <string>
#include <utility>

#include "obs/scope.hpp"
#include "util/log.hpp"

namespace hyperdrive::obs {

class LogCapture {
 public:
  /// Install: every log line at or above the current level is forwarded to
  /// `scope` (sink and/or metrics) instead of stderr. The process-wide
  /// writer hook is single-occupancy — nest captures at your own peril.
  explicit LogCapture(Scope scope) : scope_(std::move(scope)) {
    util::set_log_writer([this](util::LogLevel level, const std::string& component,
                                const std::string& message) {
      if (scope_.metrics != nullptr) scope_.metrics->counter("log.lines").add();
      if (scope_.sink != nullptr) {
        scope_.emit(TraceEvent(EventKind::LogMessage)
                        .with_detail(std::string(util::to_string(level)) + ' ' +
                                     component + ": " + message));
      }
    });
  }
  ~LogCapture() { util::set_log_writer(nullptr); }
  LogCapture(const LogCapture&) = delete;
  LogCapture& operator=(const LogCapture&) = delete;

 private:
  Scope scope_;
};

}  // namespace hyperdrive::obs
