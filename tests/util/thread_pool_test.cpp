#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

namespace hyperdrive::util {
namespace {

TEST(ParallelForTest, CoversAllIndicesExactlyOnce) {
  std::vector<std::atomic<int>> hits(500);
  parallel_for(500, 8, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, ZeroItemsIsNoop) {
  bool called = false;
  parallel_for(0, 4, [&called](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, SingleThreadPathWorks) {
  int sum = 0;
  parallel_for(10, 1, [&sum](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

TEST(ParallelForTest, RethrowsFirstException) {
  EXPECT_THROW(
      parallel_for(100, 4,
                   [](std::size_t i) {
                     if (i == 50) throw std::logic_error("bad index");
                   }),
      std::logic_error);
}

}  // namespace
}  // namespace hyperdrive::util
