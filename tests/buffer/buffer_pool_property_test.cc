// Property tests: the buffer pool must behave exactly like a reference
// model (a map of page contents plus an LRU list) under arbitrary access
// sequences, for any frame count, and keep its write-back invariants step
// by step, over the simulated disk and the SSD alike.

#include <algorithm>
#include <deque>
#include <map>
#include <set>
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

std::set<PageId> ResidentSet(const BufferPool& pool) {
  std::set<PageId> resident;
  for (PageId p = 0; p < kPages; ++p) {
    if (pool.IsResident(p)) resident.insert(p);
  }
  return resident;
}

class BufferPoolPropertyTest : public ::testing::TestWithParam<Params> {};

TEST_P(BufferPoolPropertyTest, MatchesReferenceModel) {
  const Params params = GetParam();
  constexpr int kSteps = 4000;

  SimulatedDisk disk(kPageSize);
  disk.AllocatePages(kPages);
  BufferPool pool(&disk, params.frames);

  // Reference model: logical content of every page (as the application
  // sees it through the pool), plus an LRU queue.
  std::map<PageId, uint8_t> content;  // First byte per page; 0 initially.
  std::deque<PageId> lru;             // Front = most recent.
  uint64_t model_misses = 0;

  auto touch_lru = [&](PageId p) {
    for (auto it = lru.begin(); it != lru.end(); ++it) {
      if (*it == p) {
        lru.erase(it);
        break;
      }
    }
    lru.push_front(p);
    if (lru.size() > params.frames) lru.pop_back();
  };
  auto resident = [&](PageId p) {
    for (PageId q : lru) {
      if (q == p) return true;
    }
    return false;
  };

  Rng rng(params.seed);
  for (int step = 0; step < kSteps; ++step) {
    const PageId page = rng.UniformInt(kPages);
    const bool write = rng.Bernoulli(0.4);

    if (!resident(page)) ++model_misses;
    touch_lru(page);

    auto frame = pool.GetPage(
        page, write ? AccessMode::kWrite : AccessMode::kRead);
    ASSERT_TRUE(frame.ok());
    // The pool must always present the logical content.
    ASSERT_EQ(std::to_integer<uint8_t>((*frame)[0]), content[page])
        << "page " << page << " at step " << step;
    if (write) {
      const uint8_t value = static_cast<uint8_t>(step & 0xff);
      (*frame)[0] = static_cast<std::byte>(value);
      content[page] = value;
    }

    // Residency and recency must match the model exactly (strict LRU).
    ASSERT_EQ(pool.resident_pages(), lru.size());
    const std::vector<PageId> order = pool.LruOrder();
    ASSERT_EQ(order.size(), lru.size());
    for (size_t i = 0; i < lru.size(); ++i) {
      ASSERT_EQ(order[i], lru[i]) << "LRU position " << i << " at step "
                                  << step;
    }
  }

  EXPECT_EQ(pool.stats().misses, model_misses);
  EXPECT_EQ(pool.stats().hits, static_cast<uint64_t>(kSteps) - model_misses);
  // Every miss is a disk read; disk agrees with the pool.
  EXPECT_EQ(disk.stats().page_reads, model_misses);

  // After flushing, the disk holds the logical content of every page.
  ASSERT_TRUE(pool.FlushAll().ok());
  for (const auto& [page, value] : content) {
    std::vector<std::byte> buf(kPageSize);
    ASSERT_TRUE(disk.ReadPage(page, buf).ok());
    EXPECT_EQ(std::to_integer<uint8_t>(buf[0]), value) << "page " << page;
  }
}

// DiscardExtent and ReleaseArenaFrames drop pages without write-back in the
// middle of random accesses, so a dropped page reads back as the disk holds
// it. After every step the pool's LRU order, residency, dirty bits and
// content must match the reference model.
TEST_P(BufferPoolPropertyTest, DropsMatchReferenceModel) {
  const Params params = GetParam();

  SimulatedDisk disk(kPageSize);
  disk.AllocatePages(kPages);
  BufferPool pool(&disk, params.frames);

  // Reference model: the first byte of every page on disk, and the LRU
  // queue of resident pages with their cached first byte and dirty bit.
  struct Resident {
    PageId page;
    uint8_t byte;
    bool dirty;
  };
  std::vector<uint8_t> on_disk(kPages, 0);
  std::deque<Resident> lru;  // Front = most recent.
  auto find = [&](PageId p) {
    return std::find_if(lru.begin(), lru.end(),
                        [p](const Resident& r) { return r.page == p; });
  };

  Rng rng(params.seed + 1000);
  for (int step = 0; step < 4000; ++step) {
    const uint64_t draw = rng.UniformInt(100);
    if (draw < 4) {
      // A partition's worth of pages, possibly running past the last one.
      const PageExtent extent{rng.UniformInt(kPages), 1 + rng.UniformInt(6)};
      pool.DiscardExtent(extent);
      std::erase_if(lru, [&](const Resident& r) {
        return extent.Contains(r.page);
      });
    } else if (draw < 5) {
      pool.ReleaseArenaFrames();
      lru.clear();
    } else {
      const PageId page = rng.UniformInt(kPages);
      const bool write = rng.Bernoulli(0.4);
      Resident entry{page, on_disk[page], false};
      if (const auto it = find(page); it != lru.end()) {
        entry = *it;
        lru.erase(it);
      } else if (lru.size() == params.frames) {
        if (lru.back().dirty) on_disk[lru.back().page] = lru.back().byte;
        lru.pop_back();
      }
      auto frame = pool.GetPage(
          page, write ? AccessMode::kWrite : AccessMode::kRead);
      ASSERT_TRUE(frame.ok());
      ASSERT_EQ(std::to_integer<uint8_t>((*frame)[0]), entry.byte)
          << "page " << page << " at step " << step;
      if (write) {
        entry = {page, static_cast<uint8_t>(step & 0xff), true};
        (*frame)[0] = static_cast<std::byte>(entry.byte);
      }
      lru.push_front(entry);
    }

    std::vector<PageId> order;
    for (const Resident& r : lru) order.push_back(r.page);
    ASSERT_EQ(pool.LruOrder(), order) << "step " << step;
    ASSERT_EQ(pool.resident_pages(), lru.size()) << "step " << step;
    for (PageId p = 0; p < kPages; ++p) {
      const auto it = find(p);
      ASSERT_EQ(pool.IsResident(p), it != lru.end())
          << "page " << p << " at step " << step;
      ASSERT_EQ(pool.IsDirty(p), it != lru.end() && it->dirty)
          << "page " << p << " at step " << step;
    }
  }

  // After flushing, the disk holds every resident page's cached byte and
  // every other page's last written-back byte.
  ASSERT_TRUE(pool.FlushAll().ok());
  for (const Resident& r : lru) on_disk[r.page] = r.byte;
  for (PageId p = 0; p < kPages; ++p) {
    std::vector<std::byte> buf(kPageSize);
    ASSERT_TRUE(disk.ReadPage(p, buf).ok());
    EXPECT_EQ(std::to_integer<uint8_t>(buf[0]), on_disk[p]) << "page " << p;
  }
}

// Single-step invariants, observed before/after every access:
//  - a hit changes neither residency nor device traffic;
//  - a miss reads exactly one page, admits the requested page, and evicts
//    at most one page — paying a device write iff the evictee was dirty;
//  - LruOrder() is always a permutation of the resident set;
//  - capacity is never exceeded, and the pool always presents the logical
//    content regardless of eviction decisions.
TEST_P(BufferPoolPropertyTest, PoolInvariantsUnderRandomAccess) {
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

// The pool must run over the SSD backend too (it does not care which
// device is underneath).
TEST_P(BufferPoolPropertyTest, WorksOverSsdBackend) {
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
    FrameCountsAndSeeds, BufferPoolPropertyTest,
    ::testing::Values(Params{1, 1}, Params{2, 2}, Params{3, 3}, Params{7, 4},
                      Params{8, 5}, Params{16, 6}, Params{23, 7},
                      Params{24, 8}, Params{64, 9}),
    [](const ::testing::TestParamInfo<Params>& info) {
      return "frames" + std::to_string(info.param.frames) + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace odbgc
