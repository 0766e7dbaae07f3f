// util::write_file and util::write_file_atomic: every artifact and journal
// write is checked, and a failure names the path.
#include "util/atomic_file.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "support/file_size_limit.hpp"

namespace hyperdrive::util {
namespace {

std::string read_back(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(WriteFileTest, ShortWriteThrowsWithThePath) {
  const std::string path = ::testing::TempDir() + "write_file_short.csv";
  const std::string bytes(64, 'x');
  {
    const FileSizeLimit limit(16);
    try {
      write_file(path, bytes);
      ADD_FAILURE() << "a 64-byte write under a 16-byte limit did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("cannot write '" + path + "'"), std::string::npos)
          << e.what();
    }
  }
  write_file(path, bytes);  // the same write holds without the limit
  EXPECT_EQ(read_back(path), bytes);
}

TEST(WriteFileTest, MissingDirectoryThrowsAndAtomicWriteKeepsOldContents) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / "write_file_atomic";
  std::filesystem::remove_all(dir);
  EXPECT_THROW(write_file((dir / "x.csv").string(), "row\n"), std::runtime_error);

  std::filesystem::create_directories(dir);
  const std::string path = (dir / "meta").string();
  write_file_atomic(path, "old\n");
  {
    const FileSizeLimit limit(2);
    EXPECT_THROW(write_file_atomic(path, "new contents\n"), std::runtime_error);
  }
  EXPECT_EQ(read_back(path), "old\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

}  // namespace
}  // namespace hyperdrive::util
