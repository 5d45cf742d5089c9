// Property tests of the LRU buffer pool as a write-back cache: it must stay
// correct (content, residency, capacity, I/O accounting), its LRU order
// must describe exactly the resident set, and a replay — DiscardExtent
// included — must rebuild the same state and make identical decisions.

#include <algorithm>
#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "buffer/buffer_pool.h"
#include "storage/disk.h"
#include "storage/ssd_device.h"
#include "util/random.h"

namespace odbgc {
namespace {

constexpr size_t kPageSize = 32;
constexpr size_t kPages = 24;

struct Params {
  size_t frames;
  uint64_t seed;
};

std::string ParamName(const ::testing::TestParamInfo<Params>& info) {
  return "lru_frames" + std::to_string(info.param.frames) + "_seed" +
         std::to_string(info.param.seed);
}

std::set<PageId> ResidentSet(const BufferPool& pool) {
  std::set<PageId> resident;
  for (PageId p = 0; p < kPages; ++p) {
    if (pool.IsResident(p)) resident.insert(p);
  }
  return resident;
}

class ReplacementPolicyPropertyTest : public ::testing::TestWithParam<Params> {
};

// Single-step invariants, observed before/after every access:
//  - a hit changes neither residency nor device traffic;
//  - a miss reads exactly one page, admits the requested page, and evicts
//    at most one page — paying a device write iff the evictee was dirty;
//  - LruOrder() is always a permutation of the resident set;
//  - capacity is never exceeded, and the pool always presents the logical
//    content regardless of eviction decisions.
TEST_P(ReplacementPolicyPropertyTest, PoolInvariantsUnderRandomAccess) {
  const Params params = GetParam();
  constexpr int kSteps = 3000;

  SimulatedDisk disk(kPageSize);
  disk.AllocatePages(kPages);
  BufferPool pool(&disk, params.frames);

  std::vector<uint8_t> content(kPages, 0);  // Logical first byte per page.
  uint64_t expected_misses = 0;

  Rng rng(params.seed);
  for (int step = 0; step < kSteps; ++step) {
    const PageId page = rng.UniformInt(kPages);
    const bool write = rng.Bernoulli(0.4);

    const std::set<PageId> resident0 = ResidentSet(pool);
    std::vector<bool> dirty0(kPages);
    for (PageId p : resident0) dirty0[p] = pool.IsDirty(p);
    const uint64_t reads0 = disk.stats().page_reads;
    const uint64_t writes0 = disk.stats().page_writes;
    const bool hit = resident0.count(page) > 0;

    auto frame =
        pool.GetPage(page, write ? AccessMode::kWrite : AccessMode::kRead);
    ASSERT_TRUE(frame.ok());
    ASSERT_EQ(std::to_integer<uint8_t>((*frame)[0]), content[page])
        << "page " << page << " at step " << step;
    if (write) {
      const uint8_t value = static_cast<uint8_t>(step & 0xff);
      (*frame)[0] = static_cast<std::byte>(value);
      content[page] = value;
    }

    const std::set<PageId> resident1 = ResidentSet(pool);
    if (hit) {
      ASSERT_EQ(resident1, resident0) << "hit must not change residency";
      ASSERT_EQ(disk.stats().page_reads, reads0) << "hit must not read";
      ASSERT_EQ(disk.stats().page_writes, writes0) << "hit must not write";
    } else {
      ++expected_misses;
      ASSERT_TRUE(resident1.count(page) > 0);
      ASSERT_EQ(disk.stats().page_reads, reads0 + 1)
          << "each miss is exactly one device read";
      // Evicted = resident0 \ resident1; only a full pool evicts, and
      // only one page at a time.
      std::vector<PageId> evicted;
      for (PageId p : resident0) {
        if (resident1.count(p) == 0) evicted.push_back(p);
      }
      if (resident0.size() == params.frames) {
        ASSERT_EQ(evicted.size(), 1u) << "full pool must evict exactly one";
        const uint64_t expected_writes =
            writes0 + (dirty0[evicted[0]] ? 1 : 0);
        ASSERT_EQ(disk.stats().page_writes, expected_writes)
            << "write-back iff the evictee was dirty (step " << step << ")";
      } else {
        ASSERT_TRUE(evicted.empty()) << "no eviction below capacity";
        ASSERT_EQ(disk.stats().page_writes, writes0);
      }
    }

    ASSERT_LE(pool.resident_pages(), params.frames);
    if (write) {
      ASSERT_TRUE(pool.IsDirty(page));
    }

    // LruOrder() is a permutation of the resident set.
    std::vector<PageId> order = pool.LruOrder();
    ASSERT_EQ(order.size(), resident1.size());
    std::sort(order.begin(), order.end());
    ASSERT_TRUE(std::equal(order.begin(), order.end(), resident1.begin()))
        << "LRU order out of sync with residency at step " << step;
  }

  EXPECT_EQ(pool.stats().misses, expected_misses);
  EXPECT_EQ(pool.stats().hits,
            static_cast<uint64_t>(kSteps) - expected_misses);
  EXPECT_EQ(disk.stats().page_reads, expected_misses);

  // After a flush, the device holds the logical content of every page.
  ASSERT_TRUE(pool.FlushAll().ok());
  for (PageId p = 0; p < kPages; ++p) {
    std::vector<std::byte> buf(kPageSize);
    ASSERT_TRUE(disk.ReadPage(p, buf).ok());
    EXPECT_EQ(std::to_integer<uint8_t>(buf[0]), content[p]) << "page " << p;
  }
}

// The same access sequence against a fresh pool must reproduce the same
// LRU order and the same counters (the pool is deterministic — every
// result is a pure function of (config, seed)).
TEST_P(ReplacementPolicyPropertyTest, ReplayIsDeterministic) {
  const Params params = GetParam();
  auto run = [&](BufferPool& pool) {
    Rng rng(params.seed + 17);
    for (int step = 0; step < 1500; ++step) {
      const PageId page = rng.UniformInt(kPages);
      const AccessMode mode =
          rng.Bernoulli(0.3) ? AccessMode::kWrite : AccessMode::kRead;
      ASSERT_TRUE(pool.GetPage(page, mode).ok());
    }
  };

  SimulatedDisk disk_a(kPageSize);
  disk_a.AllocatePages(kPages);
  BufferPool a(&disk_a, params.frames);
  run(a);

  SimulatedDisk disk_b(kPageSize);
  disk_b.AllocatePages(kPages);
  BufferPool b(&disk_b, params.frames);
  run(b);

  EXPECT_EQ(a.LruOrder(), b.LruOrder());
  EXPECT_EQ(a.stats().hits, b.stats().hits);
  EXPECT_EQ(a.stats().misses, b.stats().misses);
  EXPECT_EQ(disk_a.stats().page_writes, disk_b.stats().page_writes);
}

// DiscardExtent mid-stream, then a round trip through the one saved form
// a pool's state has: the access log that built it. Replaying the log,
// discard included, into a fresh pool must restore the same residency,
// dirty bits and LRU order, and the two pools must then make
// identical decisions under a further identical access sequence.
TEST_P(ReplacementPolicyPropertyTest, DiscardThenSaveLoadRoundTrip) {
  const Params params = GetParam();
  struct Access {
    PageId page;
    AccessMode mode;
  };

  SimulatedDisk disk_a(kPageSize);
  disk_a.AllocatePages(kPages);
  BufferPool a(&disk_a, params.frames);

  Rng rng(params.seed + 99);
  std::vector<Access> log;
  for (int step = 0; step < 600; ++step) {
    const PageId page = rng.UniformInt(kPages);
    const AccessMode mode =
        rng.Bernoulli(0.4) ? AccessMode::kWrite : AccessMode::kRead;
    ASSERT_TRUE(a.GetPage(page, mode).ok());
    log.push_back({page, mode});
  }

  // Discard a partition's worth of pages mid-stream, like the collector
  // does after evacuating one.
  const PageExtent discarded{4, 6};
  a.DiscardExtent(discarded);
  for (PageId p = discarded.first_page; p < discarded.first_page + 6; ++p) {
    ASSERT_FALSE(a.IsResident(p));
  }

  SimulatedDisk disk_b(kPageSize);
  disk_b.AllocatePages(kPages);
  BufferPool b(&disk_b, params.frames);
  for (const Access& access : log) {
    ASSERT_TRUE(b.GetPage(access.page, access.mode).ok());
  }
  b.DiscardExtent(discarded);

  EXPECT_EQ(b.LruOrder(), a.LruOrder());
  EXPECT_EQ(b.resident_pages(), a.resident_pages());
  EXPECT_EQ(disk_b.stats().page_writes, disk_a.stats().page_writes);
  for (PageId p = 0; p < kPages; ++p) {
    ASSERT_EQ(b.IsResident(p), a.IsResident(p)) << "page " << p;
    if (a.IsResident(p)) {
      ASSERT_EQ(b.IsDirty(p), a.IsDirty(p)) << "page " << p;
    }
  }

  // Lockstep: identical further accesses must keep the pools identical.
  for (int step = 0; step < 400; ++step) {
    const PageId page = rng.UniformInt(kPages);
    const AccessMode mode =
        rng.Bernoulli(0.4) ? AccessMode::kWrite : AccessMode::kRead;
    ASSERT_TRUE(a.GetPage(page, mode).ok());
    ASSERT_TRUE(b.GetPage(page, mode).ok());
    ASSERT_EQ(a.LruOrder(), b.LruOrder()) << "diverged at step " << step;
  }
  for (PageId p = 0; p < kPages; ++p) {
    ASSERT_EQ(b.IsResident(p), a.IsResident(p)) << "page " << p;
  }
}

// The pool must run over the SSD backend too (it does not care which
// device is underneath).
TEST_P(ReplacementPolicyPropertyTest, WorksOverSsdBackend) {
  const Params params = GetParam();
  SsdCostParams flash;
  flash.pages_per_block = 4;
  SsdDevice ssd(kPageSize, nullptr, flash);
  ssd.AllocatePages(kPages);
  BufferPool pool(&ssd, params.frames);

  std::vector<uint8_t> content(kPages, 0);
  Rng rng(params.seed + 7);
  for (int step = 0; step < 1200; ++step) {
    const PageId page = rng.UniformInt(kPages);
    const bool write = rng.Bernoulli(0.5);
    auto frame =
        pool.GetPage(page, write ? AccessMode::kWrite : AccessMode::kRead);
    ASSERT_TRUE(frame.ok());
    ASSERT_EQ(std::to_integer<uint8_t>((*frame)[0]), content[page])
        << "page " << page << " at step " << step;
    if (write) {
      const uint8_t value = static_cast<uint8_t>((step + 1) & 0xff);
      (*frame)[0] = static_cast<std::byte>(value);
      content[page] = value;
    }
  }
  EXPECT_EQ(pool.stats().misses, ssd.stats().page_reads);
  ASSERT_TRUE(pool.FlushAll().ok());
  for (PageId p = 0; p < kPages; ++p) {
    std::vector<std::byte> buf(kPageSize);
    ASSERT_TRUE(ssd.ReadPage(p, buf).ok());
    EXPECT_EQ(std::to_integer<uint8_t>(buf[0]), content[p]) << "page " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesFramesSeeds, ReplacementPolicyPropertyTest,
    ::testing::Values(Params{1, 1}, Params{8, 2}, Params{16, 3}),
    ParamName);

}  // namespace
}  // namespace odbgc
