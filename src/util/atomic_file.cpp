#include "util/atomic_file.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <system_error>

namespace hyperdrive::util {

void write_file(const std::string& path, std::string_view bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    throw std::runtime_error("cannot write '" + path + "': " + std::strerror(errno));
  }
  const bool written = std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  const int write_errno = errno;
  // fclose flushes the buffer: a short write past a file-size limit fails here.
  const bool closed = std::fclose(file) == 0;
  if (!written || !closed) {
    throw std::runtime_error("cannot write '" + path +
                             "': " + std::strerror(written ? errno : write_errno));
  }
}

void write_file_atomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  try {
    write_file(tmp, bytes);
    std::filesystem::rename(tmp, path);
  } catch (...) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw;
  }
}

}  // namespace hyperdrive::util
