#include "util/access_check.h"

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

namespace odbgc {
namespace {

TEST(AccessCheckTest, SameThreadEntersAndNests) {
  ExclusiveAccessCheck check;
  ASSERT_TRUE(check.TryEnter());
  // Re-entry by the holder nests instead of tripping.
  ASSERT_TRUE(check.TryEnter());
  check.Exit();
  check.Exit();
  // Fully exited: entering again succeeds.
  ASSERT_TRUE(check.TryEnter());
  check.Exit();
}

TEST(AccessCheckTest, SecondThreadIsRejectedWhileHeld) {
  ExclusiveAccessCheck check;
  ASSERT_TRUE(check.TryEnter());
  bool other_entered = true;
  std::thread other([&] { other_entered = check.TryEnter(); });
  other.join();
  EXPECT_FALSE(other_entered);
  check.Exit();
}

TEST(AccessCheckTest, IdleHandoffBetweenThreadsIsAllowed) {
  // The service's fork-join rounds migrate a quiescent heap (and its pool)
  // across workers with a happens-before edge; the check must permit that.
  ExclusiveAccessCheck check;
  ASSERT_TRUE(check.TryEnter());
  check.Exit();
  bool entered = false;
  std::thread other([&] {
    entered = check.TryEnter();
    if (entered) check.Exit();
  });
  other.join();
  EXPECT_TRUE(entered);
  // And back to this thread again.
  ASSERT_TRUE(check.TryEnter());
  check.Exit();
}

TEST(AccessCheckTest, ManySequentialHandoffsNeverTrip) {
  ExclusiveAccessCheck check;
  std::atomic<int> failures{0};
  for (int i = 0; i < 64; ++i) {
    std::thread worker([&] {
      if (!check.TryEnter()) {
        failures.fetch_add(1);
        return;
      }
      check.Exit();
    });
    worker.join();  // Join is the happens-before edge between owners.
  }
  EXPECT_EQ(failures.load(), 0);
}

TEST(AccessCheckTest, SelfIdIsNonZeroAndStable) {
  const uint64_t a = ExclusiveAccessCheck::SelfId();
  const uint64_t b = ExclusiveAccessCheck::SelfId();
  EXPECT_NE(a, 0u);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace odbgc
