#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
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

TEST(FanOutTest, EveryIndexRunsOnceUnderConcurrentCallers) {
  // More callers than cores: helpers join some calls and none of the others,
  // and no item is lost or run twice either way.
  constexpr std::size_t kCallers = 8;
  constexpr std::size_t kItems = 300;
  std::vector<std::vector<std::atomic<int>>> hits;
  for (std::size_t c = 0; c < kCallers; ++c) hits.emplace_back(kItems);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&hits, c] {
      for (int round = 0; round < 20; ++round) {
        fan_out(kItems / 20, [&hits, c, round](std::size_t i) {
          hits[c][static_cast<std::size_t>(round) * (kItems / 20) + i].fetch_add(1);
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    for (std::size_t i = 0; i < kItems; ++i) EXPECT_EQ(hits[c][i].load(), 1) << c << "/" << i;
  }
}

TEST(FanOutTest, RethrowsFirstExceptionAfterEveryItemFinished) {
  // Item 0 throws at once; the others are still running on the caller or on
  // helpers, and fan_out may rethrow only once each of them has returned.
  constexpr std::size_t kItems = 12;
  std::atomic<std::size_t> finished{0};
  try {
    fan_out(kItems, [&finished](std::size_t i) {
      if (i == 0) throw std::logic_error("item 0");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      finished.fetch_add(1);
    });
    ADD_FAILURE() << "fan_out swallowed the exception";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "item 0");
  }
  EXPECT_EQ(finished.load(), kItems - 1);
}

TEST(FanOutTest, RunsInlineInsideParallelForWorkers) {
  // A sweep worker already holds a core: its fan-outs must not hand items
  // to helpers (sweeps at --jobs > 1 then never wake one).
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kItems = 64;
  std::vector<std::thread::id> worker_ids(kWorkers);
  std::vector<std::vector<std::thread::id>> item_ids(kWorkers,
                                                     std::vector<std::thread::id>(kItems));
  parallel_for(kWorkers, kWorkers, [&](std::size_t w) {
    worker_ids[w] = std::this_thread::get_id();
    fan_out(kItems, [&, w](std::size_t i) { item_ids[w][i] = std::this_thread::get_id(); });
  });
  for (std::size_t w = 0; w < kWorkers; ++w) {
    for (std::size_t i = 0; i < kItems; ++i) EXPECT_EQ(item_ids[w][i], worker_ids[w]) << w;
  }
}

TEST(FanOutTest, ZeroAndOneItemRunInline) {
  bool called = false;
  fan_out(0, [&called](std::size_t) { called = true; });
  EXPECT_FALSE(called);
  std::thread::id ran_on;
  fan_out(1, [&ran_on](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

}  // namespace
}  // namespace hyperdrive::util
