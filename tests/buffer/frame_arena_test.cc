// SharedFrameArena contract (buffer/frame_arena.h, DESIGN.md §17):
//
//  1. Behavioural identity — a BufferPool borrowing frames from a shared
//     arena produces the same hits/misses/order/write-back as a pool of
//     the same quota built without one, as long as the arena never runs
//     dry.
//  2. Squeeze — when the arena IS dry, a pool under quota evicts its own
//     victim (never another tenant's) and counts the squeeze; a pool with
//     nothing resident gets ResourceExhausted rather than deadlock.
//  3. Frame hygiene — discard, release and eviction return/retain frames
//     such that FramesInUse always equals the fleet's resident total.
//  4. Thread safety — pools on different threads sharing one arena (the
//     service's actual topology) share only the frame allocator; run
//     under TSan this proves the allocator is the only shared structure.
#include "buffer/frame_arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "buffer/buffer_pool.h"
#include "storage/disk.h"
#include "storage/extent.h"

namespace odbgc {
namespace {

TEST(FrameArenaTest, AllocatorHandsOutAndRecyclesFrames) {
  SharedFrameArena arena(3);
  EXPECT_EQ(arena.frame_count(), 3u);
  EXPECT_EQ(arena.FramesInUse(), 0u);

  const uint32_t a = arena.TryAllocFrame();
  const uint32_t b = arena.TryAllocFrame();
  const uint32_t c = arena.TryAllocFrame();
  ASSERT_NE(a, SharedFrameArena::kNoFrame);
  ASSERT_NE(b, SharedFrameArena::kNoFrame);
  ASSERT_NE(c, SharedFrameArena::kNoFrame);
  EXPECT_EQ(arena.FramesInUse(), 3u);
  // Exhausted: the caller is told to squeeze, not blocked.
  EXPECT_EQ(arena.TryAllocFrame(), SharedFrameArena::kNoFrame);

  arena.ReleaseFrame(b);
  EXPECT_EQ(arena.FramesInUse(), 2u);
  EXPECT_EQ(arena.TryAllocFrame(), b);  // LIFO reuse keeps frames warm.

  const uint32_t batch[] = {a, b, c};
  arena.ReleaseFrames(batch);
  EXPECT_EQ(arena.FramesInUse(), 0u);
}

// -- Pool-over-arena behaviour ----------------------------------------------

struct Tenant {
  explicit Tenant(SharedFrameArena* arena, size_t quota = 3)
      : disk(64), pool(&disk, quota, arena) {
    disk.AllocatePages(16);
  }
  SimulatedDisk disk;
  BufferPool pool;
};

TEST(FrameArenaPoolTest, SharedPoolMatchesPrivatePoolWhenArenaIsAmple) {
  SimulatedDisk own_disk(64);
  own_disk.AllocatePages(16);
  BufferPool own_pool(&own_disk, 3);  // Owns an arena of its 3 frames.

  SharedFrameArena arena(8);
  Tenant tenant(&arena);

  const PageId trace[] = {0, 1, 2, 0, 3, 1, 4, 4, 2, 0};
  for (PageId page : trace) {
    const AccessMode mode = page % 2 ? AccessMode::kWrite : AccessMode::kRead;
    ASSERT_TRUE(own_pool.GetPage(page, mode).ok());
    ASSERT_TRUE(tenant.pool.GetPage(page, mode).ok());
  }
  EXPECT_EQ(tenant.pool.LruOrder(), own_pool.LruOrder());
  EXPECT_EQ(tenant.pool.stats().hits, own_pool.stats().hits);
  EXPECT_EQ(tenant.pool.stats().misses, own_pool.stats().misses);
  EXPECT_EQ(tenant.pool.stats().writes_app, own_pool.stats().writes_app);
  EXPECT_EQ(tenant.pool.squeezed_evictions(), 0u);
  // At quota the tenant borrows exactly quota frames, no more.
  EXPECT_EQ(arena.FramesInUse(), 3u);

  // Dirty bytes drain to the tenant's own device, same as the other's.
  ASSERT_TRUE(tenant.pool.FlushAll().ok());
  ASSERT_TRUE(own_pool.FlushAll().ok());
  for (PageId page : {1, 3}) {
    std::vector<std::byte> shared_bytes(64), own_bytes(64);
    ASSERT_TRUE(tenant.disk.ReadPage(page, shared_bytes).ok());
    ASSERT_TRUE(own_disk.ReadPage(page, own_bytes).ok());
    EXPECT_EQ(shared_bytes, own_bytes) << "page " << page;
  }
}

TEST(FrameArenaPoolTest, EvictionAtQuotaReusesTheAttachedFrame) {
  SharedFrameArena arena(8);
  Tenant tenant(&arena, /*quota=*/2);
  ASSERT_TRUE(tenant.pool.GetPage(0, AccessMode::kRead).ok());
  ASSERT_TRUE(tenant.pool.GetPage(1, AccessMode::kRead).ok());
  EXPECT_EQ(arena.FramesInUse(), 2u);
  // Quota-full evictions recycle the victim's frame in place: the arena's
  // allocator is not involved, use stays flat.
  ASSERT_TRUE(tenant.pool.GetPage(2, AccessMode::kRead).ok());
  EXPECT_EQ(arena.FramesInUse(), 2u);
  EXPECT_FALSE(tenant.pool.IsResident(0));
  EXPECT_EQ(tenant.pool.resident_pages(), 2u);
  EXPECT_EQ(arena.FramesInUse(), tenant.pool.resident_pages());
}

TEST(FrameArenaPoolTest, DiscardAndReleaseReturnFramesToTheArena) {
  SharedFrameArena arena(8);
  Tenant a(&arena);
  Tenant b(&arena);
  for (PageId page : {0, 1, 2}) {
    ASSERT_TRUE(a.pool.GetPage(page, AccessMode::kWrite).ok());
    ASSERT_TRUE(b.pool.GetPage(page, AccessMode::kRead).ok());
  }
  EXPECT_EQ(a.pool.resident_pages() + b.pool.resident_pages(), 6u);
  EXPECT_EQ(arena.FramesInUse(),
            a.pool.resident_pages() + b.pool.resident_pages());

  // Discard drops a's pages 0-1 without write-back and frees their frames;
  // b's identically-numbered pages are untouched.
  a.pool.DiscardExtent(PageExtent{0, 2});
  EXPECT_EQ(a.pool.resident_pages(), 1u);
  EXPECT_EQ(b.pool.resident_pages(), 3u);
  for (PageId page : {0, 1}) {
    EXPECT_FALSE(a.pool.IsResident(page)) << "tenant a page " << page;
    EXPECT_TRUE(b.pool.IsResident(page)) << "tenant b page " << page;
  }
  EXPECT_EQ(arena.FramesInUse(), 4u);

  // Departure path: everything back at once, counters untouched.
  const BufferStats before = b.pool.stats();
  b.pool.ReleaseArenaFrames();
  EXPECT_EQ(b.pool.resident_pages(), 0u);
  EXPECT_EQ(arena.FramesInUse(), 1u);
  EXPECT_EQ(b.pool.stats().hits, before.hits);
  EXPECT_EQ(b.pool.stats().misses, before.misses);
  // And the departed tenant can fault pages back in afterwards.
  ASSERT_TRUE(b.pool.GetPage(0, AccessMode::kRead).ok());
  EXPECT_EQ(arena.FramesInUse(), 2u);
}

TEST(FrameArenaPoolTest, ExhaustedArenaSqueezesTheUnderQuotaTenant) {
  // Two tenants with quota 3 over 4 physical frames: the second tenant
  // must evict its own pages while under quota, never touch tenant a's.
  SharedFrameArena arena(4);
  Tenant a(&arena);
  Tenant b(&arena);
  for (PageId page : {0, 1, 2}) {
    ASSERT_TRUE(a.pool.GetPage(page, AccessMode::kRead).ok());
  }
  ASSERT_TRUE(b.pool.GetPage(0, AccessMode::kRead).ok());
  EXPECT_EQ(arena.FramesInUse(), 4u);

  ASSERT_TRUE(b.pool.GetPage(1, AccessMode::kRead).ok());
  EXPECT_EQ(b.pool.squeezed_evictions(), 1u);
  EXPECT_EQ(arena.squeezed_evictions(), 1u);
  EXPECT_FALSE(b.pool.IsResident(0));  // b shed its own LRU victim.
  EXPECT_EQ(b.pool.resident_pages(), 1u);
  for (PageId page : {0, 1, 2}) {
    EXPECT_TRUE(a.pool.IsResident(page)) << "tenant a page " << page;
  }
}

TEST(FrameArenaPoolTest, EmptyPoolOnExhaustedArenaReportsResourceExhausted) {
  SharedFrameArena arena(1);
  Tenant a(&arena);
  Tenant b(&arena);
  ASSERT_TRUE(a.pool.GetPage(0, AccessMode::kRead).ok());

  // b has nothing of its own to squeeze: the only honest answer is an
  // error, not stealing a's frame.
  auto result = b.pool.GetPage(0, AccessMode::kRead);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(a.pool.IsResident(0));

  // Once a lets go, b proceeds.
  a.pool.ReleaseArenaFrames();
  EXPECT_TRUE(b.pool.GetPage(0, AccessMode::kRead).ok());
}

// -- Concurrency (the TSan proof) -------------------------------------------

// The service's real topology: one thread per tenant, each driving its own
// pool, all pools borrowing from one arena. Fills under quota and
// discards hand frames through the allocator from every thread; the
// budget is ample so no squeezes perturb per-tenant determinism.
TEST(FrameArenaConcurrencyTest, TenantsOnDistinctThreadsShareOneArena) {
  constexpr uint32_t kTenants = 4;
  constexpr size_t kQuota = 4;
  constexpr int kRounds = 200;

  SharedFrameArena arena(kTenants * kQuota);
  std::vector<std::unique_ptr<Tenant>> tenants;
  for (uint32_t t = 0; t < kTenants; ++t) {
    tenants.push_back(std::make_unique<Tenant>(&arena, kQuota));
  }

  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      Tenant& tenant = *tenants[t];
      for (int round = 0; round < kRounds; ++round) {
        // A tenant-dependent stride so the fleets' page sets differ.
        const PageId page = (round * (t + 3)) % 16;
        const AccessMode mode =
            (round + t) % 3 ? AccessMode::kRead : AccessMode::kWrite;
        ASSERT_TRUE(tenant.pool.GetPage(page, mode).ok());
        if (round % 37 == 0) {
          ASSERT_TRUE(tenant.pool.FlushAll().ok());
        }
        if (round % 53 == 0) {
          tenant.pool.DiscardExtent(PageExtent{0, 4});
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  uint64_t resident = 0;
  for (const auto& tenant : tenants) {
    EXPECT_LE(tenant->pool.resident_pages(), kQuota);
    EXPECT_GT(tenant->pool.stats().misses, 0u);
    EXPECT_EQ(tenant->pool.squeezed_evictions(), 0u);
    resident += tenant->pool.resident_pages();
  }
  EXPECT_EQ(arena.FramesInUse(), resident);
  EXPECT_EQ(arena.squeezed_evictions(), 0u);
}

// Same fleet at an exact budget, every tenant writing and then releasing
// all its frames at once: maximum allocator traffic, still race-free.
TEST(FrameArenaConcurrencyTest, ExactBudgetFleetReleasesWithoutRaces) {
  constexpr uint32_t kTenants = 3;
  SharedFrameArena arena(kTenants * 3);
  std::vector<std::unique_ptr<Tenant>> tenants;
  for (uint32_t t = 0; t < kTenants; ++t) {
    tenants.push_back(std::make_unique<Tenant>(&arena, 3));
  }
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 150; ++round) {
        ASSERT_TRUE(
            tenants[t]->pool.GetPage((round + t) % 12, AccessMode::kWrite).ok());
      }
      tenants[t]->pool.ReleaseArenaFrames();
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  uint64_t resident = 0;
  for (const auto& tenant : tenants) resident += tenant->pool.resident_pages();
  EXPECT_EQ(resident, 0u);
  EXPECT_EQ(arena.FramesInUse(), resident);
}

}  // namespace
}  // namespace odbgc
