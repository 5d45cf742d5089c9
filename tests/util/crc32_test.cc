#include "util/crc32.h"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/crc32_internal.h"
#include "util/random.h"

namespace odbgc {
namespace {

// The byte-at-a-time table loop the library used before its slicing
// kernel: the kernel must return exactly these values, so every frame,
// WAL record, checkpoint and digest keeps its bytes.
uint32_t ReferenceCrc32(const unsigned char* data, size_t size,
                        uint32_t seed) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

// One bit at a time, straight from the polynomial: the reference each
// kernel is held to on its own.
uint32_t BitwiseCrc32(const unsigned char* data, size_t size, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (0xedb88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return ~crc;
}

std::vector<unsigned char> RandomBytes(Rng& rng, size_t size) {
  std::vector<unsigned char> bytes(size);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.Next());
  return bytes;
}

TEST(Crc32Test, StandardCheckValue) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check.data(), check.size()), 0xCBF43926u);
}

TEST(Crc32Test, EmptyInputIsZero) {
  EXPECT_EQ(Crc32(std::string_view()), 0u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  // An empty suffix leaves any running checksum unchanged.
  EXPECT_EQ(Crc32(nullptr, 0, 0xDEADBEEFu), 0xDEADBEEFu);
}

TEST(Crc32Test, SeedChainsAcrossSplits) {
  Rng rng(11);
  const std::vector<unsigned char> data = RandomBytes(rng, 1000);
  const uint32_t whole = Crc32(data.data(), data.size());
  // Split points on both sides of the 16-byte block boundaries.
  for (const size_t split :
       {size_t{0}, size_t{1}, size_t{15}, size_t{16}, size_t{17},
        size_t{100}, size_t{511}, size_t{999}, size_t{1000}}) {
    const uint32_t head = Crc32(data.data(), split);
    EXPECT_EQ(Crc32(data.data() + split, data.size() - split, head), whole)
        << "split " << split;
  }
}

TEST(Crc32Test, MatchesReferenceForEveryShortLength) {
  Rng rng(23);
  const std::vector<unsigned char> data = RandomBytes(rng, 64);
  for (size_t size = 0; size <= data.size(); ++size) {
    EXPECT_EQ(Crc32(data.data(), size), ReferenceCrc32(data.data(), size, 0))
        << "size " << size;
    const uint32_t seed = static_cast<uint32_t>(rng.Next());
    EXPECT_EQ(Crc32(data.data(), size, seed),
              ReferenceCrc32(data.data(), size, seed))
        << "size " << size << " seed " << seed;
  }
}

// Random lengths (up to a little over one 8 KB page frame) at every start
// offset within a 16-byte block, so the kernel's block loop and its tail
// both see unaligned input.
TEST(Crc32Test, MatchesReferenceAtRandomLengthsOffsetsAndSeeds) {
  Rng rng(37);
  constexpr size_t kMaxSize = 9000;
  const std::vector<unsigned char> data = RandomBytes(rng, kMaxSize + 16);
  for (int round = 0; round < 200; ++round) {
    const size_t offset = static_cast<size_t>(rng.UniformInt(16));
    const size_t size = static_cast<size_t>(rng.UniformInt(kMaxSize + 1));
    const uint32_t seed = static_cast<uint32_t>(rng.Next());
    EXPECT_EQ(Crc32(data.data() + offset, size, seed),
              ReferenceCrc32(data.data() + offset, size, seed))
        << "offset " << offset << " size " << size << " seed " << seed;
  }
}

// Each kernel behind Crc32, tested directly: the table loop everywhere,
// the folding kernel where this CPU can run it.
enum class Kernel { kTable, kFolding };

class Crc32KernelTest : public ::testing::TestWithParam<Kernel> {
 protected:
  void SetUp() override {
    if (GetParam() == Kernel::kFolding &&
        !crc32_internal::FoldingAvailable()) {
      GTEST_SKIP() << "no PCLMULQDQ folding kernel on this build or CPU";
    }
  }

  uint32_t Run(const unsigned char* data, size_t size, uint32_t seed) const {
    return GetParam() == Kernel::kFolding
               ? crc32_internal::FoldingCrc32(data, size, seed)
               : crc32_internal::TableCrc32(data, size, seed);
  }
};

TEST_P(Crc32KernelTest, MatchesBitwiseAtEveryLengthUpTo1024) {
  Rng rng(41);
  const std::vector<unsigned char> data = RandomBytes(rng, 1024);
  for (size_t size = 0; size <= data.size(); ++size) {
    ASSERT_EQ(Run(data.data(), size, 0), BitwiseCrc32(data.data(), size, 0))
        << "size " << size;
    const uint32_t seed = static_cast<uint32_t>(rng.Next());
    ASSERT_EQ(Run(data.data(), size, seed),
              BitwiseCrc32(data.data(), size, seed))
        << "size " << size << " seed " << seed;
  }
}

// Random lengths up to 64 KiB at every start offset within a 16-byte
// block, so the folding loop, the 16-byte folds after it and the table
// tail all see unaligned input of every residue.
TEST_P(Crc32KernelTest, MatchesBitwiseAtRandomLengthsOffsetsAndSeeds) {
  Rng rng(43);
  constexpr size_t kMaxSize = 64 * 1024;
  const std::vector<unsigned char> data = RandomBytes(rng, kMaxSize + 16);
  for (int round = 0; round < 300; ++round) {
    const size_t offset = static_cast<size_t>(rng.UniformInt(16));
    const size_t size = static_cast<size_t>(rng.UniformInt(kMaxSize + 1));
    const uint32_t seed = static_cast<uint32_t>(rng.Next());
    ASSERT_EQ(Run(data.data() + offset, size, seed),
              BitwiseCrc32(data.data() + offset, size, seed))
        << "offset " << offset << " size " << size << " seed " << seed;
  }
}

// Splits on both sides of the 16-byte fold step and the 64-byte minimum
// for folding, so a head and its tail may take different paths.
TEST_P(Crc32KernelTest, SeedChainsAcrossSplits) {
  Rng rng(47);
  const std::vector<unsigned char> data = RandomBytes(rng, 1000);
  const uint32_t seed = static_cast<uint32_t>(rng.Next());
  const uint32_t whole = BitwiseCrc32(data.data(), data.size(), seed);
  for (const size_t split : {size_t{15}, size_t{16}, size_t{63}, size_t{64},
                             size_t{65}, size_t{127}, size_t{128}}) {
    const uint32_t head = Run(data.data(), split, seed);
    EXPECT_EQ(Run(data.data() + split, data.size() - split, head), whole)
        << "split " << split;
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, Crc32KernelTest,
                         ::testing::Values(Kernel::kTable, Kernel::kFolding),
                         [](const ::testing::TestParamInfo<Kernel>& info) {
                           return info.param == Kernel::kFolding ? "folding"
                                                                 : "table";
                         });

#if defined(__x86_64__) && defined(__GNUC__)
// Crc32 takes the folding kernel exactly when FoldingAvailable(); on an
// x86-64 CPU that reports PCLMULQDQ and SSE4.1 that must be true, or every
// page frame silently pays the table loop's cost.
TEST(Crc32Test, SelectsFoldingWhenCpuHasPclmul) {
  __builtin_cpu_init();
  const bool cpu_has_pclmul = __builtin_cpu_supports("pclmul") &&
                              __builtin_cpu_supports("sse4.1");
  EXPECT_EQ(crc32_internal::FoldingAvailable(), cpu_has_pclmul);
}
#endif

}  // namespace
}  // namespace odbgc
