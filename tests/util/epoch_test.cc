#include "util/epoch.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace odbgc {
namespace {

TEST(EpochManagerTest, StartsAtEpochOneAllQuiescent) {
  EpochManager manager;
  EXPECT_EQ(manager.current_epoch(), 1u);
  EXPECT_EQ(manager.registered_threads(), 0u);
  EXPECT_TRUE(manager.AllQuiescent());
  // A thread may still pin epoch 1, so nothing retired in it is safe yet.
  EXPECT_EQ(manager.SafeEpoch(), 0u);
}

TEST(EpochManagerTest, PinPublishesCurrentEpoch) {
  EpochManager manager;
  EpochManager::ThreadSlot* slot = manager.RegisterThread();
  ASSERT_NE(slot, nullptr);

  EXPECT_FALSE(manager.IsPinned(slot));
  manager.Pin(slot);
  EXPECT_TRUE(manager.IsPinned(slot));
  // A thread pinned in epoch 1 blocks reclamation of everything retired in
  // epoch >= 1, so nothing is safe yet.
  EXPECT_EQ(manager.SafeEpoch(), 0u);
  EXPECT_FALSE(manager.AllQuiescent());

  manager.BumpEpoch();
  manager.BumpEpoch();
  EXPECT_EQ(manager.current_epoch(), 3u);
  // Still pinned in 1: safe bound stays 0.
  EXPECT_EQ(manager.SafeEpoch(), 0u);

  manager.Unpin(slot);
  EXPECT_FALSE(manager.IsPinned(slot));
  // No pins: everything before the current epoch 3 is safe.
  EXPECT_EQ(manager.SafeEpoch(), 2u);
  EXPECT_TRUE(manager.AllQuiescent());

  manager.UnregisterThread(slot);
  EXPECT_EQ(manager.registered_threads(), 0u);
}

TEST(EpochManagerTest, SafeEpochIsMinOverPinnedThreads) {
  EpochManager manager;
  EpochManager::ThreadSlot* a = manager.RegisterThread();
  EpochManager::ThreadSlot* b = manager.RegisterThread();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(manager.registered_threads(), 2u);

  manager.Pin(a);  // a @ 1
  manager.BumpEpoch();
  manager.Pin(b);  // b @ 2
  EXPECT_EQ(manager.SafeEpoch(), 0u);

  manager.Unpin(a);
  EXPECT_EQ(manager.SafeEpoch(), 1u);  // min pinned = b @ 2 → safe 1.

  manager.Unpin(b);
  EXPECT_EQ(manager.SafeEpoch(), 1u);  // No pins: current epoch 2 → safe 1.
  manager.BumpEpoch();
  EXPECT_EQ(manager.SafeEpoch(), 2u);

  manager.UnregisterThread(a);
  manager.UnregisterThread(b);
}

TEST(EpochManagerTest, SlotsAreRecycledAfterUnregister) {
  EpochManager manager;
  std::vector<EpochManager::ThreadSlot*> slots;
  for (size_t i = 0; i < EpochManager::kMaxThreads; ++i) {
    EpochManager::ThreadSlot* slot = manager.RegisterThread();
    ASSERT_NE(slot, nullptr);
    slots.push_back(slot);
  }
  EXPECT_EQ(manager.RegisterThread(), nullptr);  // Full.
  manager.UnregisterThread(slots[17]);
  EpochManager::ThreadSlot* again = manager.RegisterThread();
  EXPECT_EQ(again, slots[17]);
  for (EpochManager::ThreadSlot* slot : slots) manager.UnregisterThread(slot);
}

// ---------------------------------------------------------------------------
// Model check: drive one EpochManager with a randomized serial schedule of
// pin/unpin/bump operations over several simulated threads, mirroring every
// operation into a plain serial model. SafeEpoch()/AllQuiescent() must match
// the model at every step. Four seeds, per the suite convention.
// ---------------------------------------------------------------------------

struct SerialEpochModel {
  uint64_t epoch = 1;
  std::vector<uint64_t> pinned;  // kQuiescent (0) when not pinned.

  uint64_t SafeEpoch() const {
    uint64_t safe = epoch - 1;
    for (uint64_t local : pinned) {
      if (local != 0) safe = std::min(safe, local - 1);
    }
    return safe;
  }

  bool AllQuiescent() const {
    return std::all_of(pinned.begin(), pinned.end(),
                       [](uint64_t local) { return local == 0; });
  }
};

class EpochModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EpochModelTest, RandomScheduleMatchesSerialModel) {
  constexpr size_t kThreads = 6;
  constexpr int kSteps = 4000;

  EpochManager manager;
  SerialEpochModel model;
  model.pinned.assign(kThreads, 0);

  std::vector<EpochManager::ThreadSlot*> slots;
  for (size_t i = 0; i < kThreads; ++i) {
    EpochManager::ThreadSlot* slot = manager.RegisterThread();
    ASSERT_NE(slot, nullptr);
    slots.push_back(slot);
  }

  Rng rng(GetParam());
  for (int step = 0; step < kSteps; ++step) {
    const uint64_t op = rng.UniformInt(10);
    if (op < 4) {  // Pin a random thread (re-pin allowed: refreshes epoch).
      const size_t t = rng.UniformInt(kThreads);
      manager.Pin(slots[t]);
      model.pinned[t] = model.epoch;
    } else if (op < 8) {  // Unpin a random thread (idempotent).
      const size_t t = rng.UniformInt(kThreads);
      manager.Unpin(slots[t]);
      model.pinned[t] = 0;
    } else {  // Advance the epoch.
      manager.BumpEpoch();
      model.epoch += 1;
    }

    ASSERT_EQ(manager.current_epoch(), model.epoch) << "step " << step;
    ASSERT_EQ(manager.SafeEpoch(), model.SafeEpoch()) << "step " << step;
    ASSERT_EQ(manager.AllQuiescent(), model.AllQuiescent()) << "step " << step;
    for (size_t t = 0; t < kThreads; ++t) {
      ASSERT_EQ(manager.IsPinned(slots[t]), model.pinned[t] != 0)
          << "step " << step << " thread " << t;
    }
  }

  for (EpochManager::ThreadSlot* slot : slots) manager.UnregisterThread(slot);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EpochModelTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

// ---------------------------------------------------------------------------
// Concurrent stress: mutator threads pin/unpin in a loop while a reclaimer
// thread bumps epochs and checks the safety bound. The invariant a
// concurrent observer can check is that SafeEpoch never exceeds the global
// epoch and never goes backwards from its own prior observation (the bound
// is monotonic for a single observer because pins only protect newer
// epochs over time).
// ---------------------------------------------------------------------------

class EpochStressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EpochStressTest, SafeEpochMonotonicUnderConcurrentPins) {
  constexpr size_t kMutators = 4;
  constexpr int kIterations = 2000;

  EpochManager manager;
  std::atomic<bool> stop{false};

  std::vector<std::thread> mutators;
  for (size_t t = 0; t < kMutators; ++t) {
    mutators.emplace_back([&manager, &stop, t, seed = GetParam()] {
      EpochManager::ThreadSlot* slot = manager.RegisterThread();
      ASSERT_NE(slot, nullptr);
      Rng rng(seed * 1000 + t);
      while (!stop.load(std::memory_order_acquire)) {
        EpochGuard guard(&manager, slot);
        // Simulated critical section of random length.
        volatile uint64_t sink = 0;
        const uint64_t spin = rng.UniformInt(64);
        for (uint64_t i = 0; i < spin; ++i) sink = sink + i;
      }
      manager.UnregisterThread(slot);
    });
  }

  uint64_t last_safe = 0;
  for (int i = 0; i < kIterations; ++i) {
    const uint64_t bumped = manager.BumpEpoch();
    const uint64_t safe = manager.SafeEpoch();
    ASSERT_LE(safe, manager.current_epoch());
    ASSERT_GE(safe, last_safe) << "safety bound went backwards";
    last_safe = safe;
    // Progress: a pin taken before the bump cannot hold the bound below
    // bumped-2 forever; we only assert the cheap invariant here and the
    // eventual one below.
    (void)bumped;
  }

  stop.store(true, std::memory_order_release);
  for (std::thread& thread : mutators) thread.join();

  // All threads unregistered: everything retired before the current epoch
  // is reclaimable.
  EXPECT_EQ(manager.registered_threads(), 0u);
  EXPECT_TRUE(manager.AllQuiescent());
  EXPECT_EQ(manager.SafeEpoch(), manager.current_epoch() - 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EpochStressTest,
                         ::testing::Values(11u, 12u, 13u, 14u));

}  // namespace
}  // namespace odbgc
