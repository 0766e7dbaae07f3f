// Scoped file-size limit for tests of short writes: lowers this process's
// soft RLIMIT_FSIZE with SIGXFSZ ignored, so a write past the limit fails
// with EFBIG instead of killing the test.
#pragma once

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>

namespace hyperdrive {

/// Lowers the soft RLIMIT_FSIZE to `bytes`; restores it and the SIGXFSZ
/// handler on scope exit.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) : handler_(std::signal(SIGXFSZ, SIG_IGN)) {
    EXPECT_EQ(::getrlimit(RLIMIT_FSIZE, &saved_), 0);
    rlimit limited = saved_;
    limited.rlim_cur = bytes;
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &limited), 0);
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit saved_{};
  void (*handler_)(int);
};

}  // namespace hyperdrive
