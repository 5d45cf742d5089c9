#include "util/fork_join_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace odbgc {
namespace {

TEST(ForkJoinPoolTest, EveryIndexRunsExactlyOnce) {
  for (uint32_t threads : {1u, 2u, 4u}) {
    ForkJoinPool pool(threads);
    for (size_t n : {size_t{0}, size_t{1}, size_t{threads - 1},
                     size_t{threads}, size_t{threads + 1}, size_t{1000}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " n=" + std::to_string(n));
      std::vector<std::atomic<int>> runs(n);
      pool.Run(n, [&runs](size_t i) {
        runs[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (size_t i = 0; i < n; ++i) EXPECT_EQ(runs[i].load(), 1) << i;
    }
  }
}

// The heap service's shape: many tiny batches back to back on one pool.
// The slots are plain ints, so each check also relies on Run publishing
// the workers' writes to the caller.
TEST(ForkJoinPoolTest, ManySmallBatchesBackToBack) {
  ForkJoinPool pool(4);
  for (int call = 0; call < 10000; ++call) {
    int hits[2] = {0, 0};
    pool.Run(2, [&hits](size_t i) { ++hits[i]; });
    ASSERT_EQ(hits[0], 1) << "call " << call;
    ASSERT_EQ(hits[1], 1) << "call " << call;
  }
}

// With as many jobs as executors and every job waiting for all the
// others, the batch completes only if `threads` threads run it at once,
// and the caller must be one of them.
TEST(ForkJoinPoolTest, CallerIsOneOfTheExecutors) {
  constexpr uint32_t kThreads = 4;
  ForkJoinPool pool(kThreads);
  std::atomic<uint32_t> arrived{0};
  std::mutex ids_mutex;
  std::set<std::thread::id> ids;
  bool all_arrived = true;
  pool.Run(kThreads, [&](size_t) {
    {
      std::lock_guard<std::mutex> lock(ids_mutex);
      ids.insert(std::this_thread::get_id());
    }
    arrived.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (arrived.load() < kThreads) {
      if (std::chrono::steady_clock::now() > deadline) {
        std::lock_guard<std::mutex> lock(ids_mutex);
        all_arrived = false;
        return;
      }
      std::this_thread::yield();
    }
  });
  EXPECT_TRUE(all_arrived);
  EXPECT_EQ(ids.size(), kThreads);
  EXPECT_EQ(ids.count(std::this_thread::get_id()), 1u);
}

// Index 0 is the caller's first claim, so the throw lands on the caller
// before any worker need have woken; the rest of the batch must still run.
TEST(ForkJoinPoolTest, RethrowsAfterTheBatchDrains) {
  for (uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ForkJoinPool pool(threads);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.Run(64,
                          [&ran](size_t i) {
                            ran.fetch_add(1);
                            if (i == 0 || i == 5) {
                              throw std::runtime_error("job failed");
                            }
                          }),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 64);
    // The pool stays usable after a failed batch.
    ran.store(0);
    pool.Run(8, [&ran](size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 8);
  }
}

TEST(ForkJoinPoolTest, DestroyingAParkedPoolReturns) {
  {
    ForkJoinPool never_used(4);
  }
  std::atomic<int> ran{0};
  {
    ForkJoinPool pool(4);
    pool.Run(16, [&ran](size_t) { ran.fetch_add(1); });
    // Let the workers go back to waiting before the destructor runs.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(ran.load(), 16);
}

}  // namespace
}  // namespace odbgc
