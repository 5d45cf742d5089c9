#include "storage/ssd_device.h"

#include <vector>

#include <gtest/gtest.h>

namespace odbgc {
namespace {

constexpr size_t kPageSize = 64;

SsdCostParams TinyFlash() {
  SsdCostParams cost;
  cost.pages_per_block = 4;
  cost.spare_blocks = 2;
  return cost;
}

std::vector<std::byte> Pattern(uint8_t value) {
  return std::vector<std::byte>(kPageSize, static_cast<std::byte>(value));
}

TEST(SsdDeviceTest, ContentRoundTrip) {
  SsdDevice ssd(kPageSize, nullptr, TinyFlash());
  const PageExtent extent = ssd.AllocatePages(6);
  EXPECT_EQ(extent.first_page, 0u);
  EXPECT_EQ(ssd.num_pages(), 6u);

  for (PageId p = 0; p < 6; ++p) {
    ASSERT_TRUE(ssd.WritePage(p, Pattern(static_cast<uint8_t>(p + 1))).ok());
  }
  for (PageId p = 0; p < 6; ++p) {
    std::vector<std::byte> buf(kPageSize);
    ASSERT_TRUE(ssd.ReadPage(p, buf).ok());
    EXPECT_EQ(std::to_integer<uint8_t>(buf[0]), p + 1);
    EXPECT_EQ(std::to_integer<uint8_t>(buf[kPageSize - 1]), p + 1);
  }
  EXPECT_EQ(ssd.stats().page_reads, 6u);
  EXPECT_EQ(ssd.stats().page_writes, 6u);
}

TEST(SsdDeviceTest, BoundsAndSizeChecks) {
  SsdDevice ssd(kPageSize, nullptr, TinyFlash());
  ssd.AllocatePages(2);
  std::vector<std::byte> buf(kPageSize);
  EXPECT_EQ(ssd.ReadPage(5, buf).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ssd.WritePage(5, buf).code(), StatusCode::kOutOfRange);
  std::vector<std::byte> wrong(kPageSize / 2);
  EXPECT_EQ(ssd.ReadPage(0, wrong).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ssd.WritePage(0, wrong).code(), StatusCode::kInvalidArgument);
}

TEST(SsdDeviceTest, GrowthKeepsSpareBlocks) {
  const SsdCostParams cost = TinyFlash();
  SsdDevice ssd(kPageSize, nullptr, cost);
  ssd.AllocatePages(4);  // 1 data block + 2 spares.
  EXPECT_EQ(ssd.flash_blocks(), 3u);
  ssd.AllocatePages(1);  // 5 logical pages -> 2 data blocks + 2 spares.
  EXPECT_EQ(ssd.flash_blocks(), 4u);
  ssd.AllocatePages(7);  // 12 logical pages -> 3 data blocks + 2 spares.
  EXPECT_EQ(ssd.flash_blocks(), 5u);
}

TEST(SsdDeviceTest, OverwriteChurnTriggersGarbageCollection) {
  SsdDevice ssd(kPageSize, nullptr, TinyFlash());
  ssd.AllocatePages(8);

  // Rewrite a small hot set far beyond the writable slots: the FTL must
  // erase blocks to keep accepting writes, and every page must survive.
  for (int round = 0; round < 64; ++round) {
    for (PageId p = 0; p < 8; ++p) {
      ASSERT_TRUE(
          ssd.WritePage(p, Pattern(static_cast<uint8_t>(round))).ok());
    }
  }
  EXPECT_GT(ssd.erases(), 0u);
  EXPECT_GE(ssd.WriteAmplification(), 1.0);
  for (PageId p = 0; p < 8; ++p) {
    std::vector<std::byte> buf(kPageSize);
    ASSERT_TRUE(ssd.ReadPage(p, buf).ok());
    EXPECT_EQ(std::to_integer<uint8_t>(buf[0]), 63u);
  }
}

TEST(SsdDeviceTest, EstimateTimeChargesReadsProgramsAndErases) {
  const SsdCostParams cost = TinyFlash();
  SsdDevice ssd(kPageSize, nullptr, cost);
  ssd.AllocatePages(8);
  for (int round = 0; round < 16; ++round) {
    for (PageId p = 0; p < 8; ++p) {
      ASSERT_TRUE(ssd.WritePage(p, Pattern(1)).ok());
    }
  }
  std::vector<std::byte> buf(kPageSize);
  ASSERT_TRUE(ssd.ReadPage(0, buf).ok());

  const DiskStats stats = ssd.stats();
  const double expected =
      static_cast<double>(stats.page_reads) * cost.read_ms_per_page +
      static_cast<double>(stats.page_writes + ssd.gc_page_copies()) *
          cost.program_ms_per_page +
      static_cast<double>(ssd.erases()) * cost.erase_ms_per_block;
  EXPECT_DOUBLE_EQ(ssd.EstimateTimeMs(), expected);
  EXPECT_GT(ssd.EstimateTimeMs(), 0.0);
}

TEST(SsdDeviceTest, FtlIsDeterministic) {
  auto run = [](SsdDevice& ssd) {
    ssd.AllocatePages(8);
    for (int round = 0; round < 32; ++round) {
      // Skewed pattern: page 0 is hot, the rest rotate.
      ASSERT_TRUE(ssd.WritePage(0, Pattern(1)).ok());
      ASSERT_TRUE(
          ssd.WritePage(1 + (round % 7), Pattern(2)).ok());
    }
  };
  SsdDevice a(kPageSize, nullptr, TinyFlash());
  SsdDevice b(kPageSize, nullptr, TinyFlash());
  run(a);
  run(b);
  EXPECT_EQ(a.erases(), b.erases());
  EXPECT_EQ(a.gc_page_copies(), b.gc_page_copies());
  EXPECT_EQ(a.stats().page_writes, b.stats().page_writes);
  EXPECT_EQ(a.flash_blocks(), b.flash_blocks());
}

}  // namespace
}  // namespace odbgc
