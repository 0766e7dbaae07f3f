#include "util/atomic_file.hpp"

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>

namespace hyperdrive::util {

void write_file_atomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  const auto fail = [&tmp](const std::string& what) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw std::runtime_error(what);
  };
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) fail("cannot open '" + tmp + "'");
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();  // flushes: a short write (disk full, file-size limit) fails here
    if (!out) fail("short write to '" + tmp + "'");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) fail("cannot rename '" + tmp + "' to '" + path + "': " + ec.message());
}

}  // namespace hyperdrive::util
