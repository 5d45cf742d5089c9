#include "storage/file_device.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "observe/observer.h"
#include "storage/disk.h"
#include "util/random.h"

namespace odbgc {
namespace {

constexpr size_t kPageSize = 1024;

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "odbgc_filedev_" + name;
  ::unlink(path.c_str());
  return path;
}

FileDeviceOptions Options(const std::string& name) {
  FileDeviceOptions options;
  options.path = TempPath(name);
  options.io_threads = 2;
  return options;
}

std::vector<std::byte> Page(uint8_t fill) {
  return std::vector<std::byte>(kPageSize, std::byte{fill});
}

std::vector<std::byte> RandomPage(Rng& rng) {
  std::vector<std::byte> page(kPageSize);
  for (std::byte& b : page) b = static_cast<std::byte>(rng.Next());
  return page;
}

// Raw access to a device's file behind its back, the way bit rot or a
// torn sector changes it.
std::vector<std::byte> ReadRaw(const std::string& path, size_t offset,
                               size_t size) {
  std::vector<std::byte> bytes(size);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  EXPECT_GE(fd, 0) << path;
  EXPECT_EQ(::pread(fd, bytes.data(), size, static_cast<off_t>(offset)),
            static_cast<ssize_t>(size));
  ::close(fd);
  return bytes;
}

void WriteRaw(const std::string& path, size_t offset,
              const std::vector<std::byte>& bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  EXPECT_GE(fd, 0) << path;
  EXPECT_EQ(
      ::pwrite(fd, bytes.data(), bytes.size(), static_cast<off_t>(offset)),
      static_cast<ssize_t>(bytes.size()));
  ::close(fd);
}

// Runs `body` with the size of the files this process may write capped at
// `bytes` (RLIMIT_FSIZE) and SIGXFSZ ignored. Under the cap the kernel
// makes real write faults: a pwrite at or past it fails with EFBIG and
// writes nothing, even inside the file's current size; one that crosses
// it writes only the bytes below it.
template <typename Body>
void WithFileSizeLimit(size_t bytes, Body body) {
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  const auto old_handler = ::signal(SIGXFSZ, SIG_IGN);
  rlimit limited = saved;
  limited.rlim_cur = bytes;
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &limited), 0);
  body();
  ::setrlimit(RLIMIT_FSIZE, &saved);
  ::signal(SIGXFSZ, old_handler);
}

TEST(FileDeviceTest, EmptyPathFailsFast) {
  FileDevice device(kPageSize, nullptr, FileDeviceOptions{});
  EXPECT_EQ(device.status().code(), StatusCode::kInvalidArgument);
  device.AllocatePages(2);
  auto buf = Page(0);
  EXPECT_FALSE(device.ReadPage(0, buf).ok());
  EXPECT_FALSE(device.WritePage(0, buf).ok());
}

TEST(FileDeviceTest, UnopenablePathSurfacesIoError) {
  FileDeviceOptions options;
  options.path = ::testing::TempDir() + "no_such_dir_odbgc/x.odb";
  FileDevice device(kPageSize, nullptr, options);
  EXPECT_EQ(device.status().code(), StatusCode::kIoError);
}

TEST(FileDeviceTest, FreshPagesReadAsZeros) {
  FileDevice device(kPageSize, nullptr, Options("zeros"));
  ASSERT_TRUE(device.status().ok()) << device.status().ToString();
  const PageExtent extent = device.AllocatePages(3);
  EXPECT_EQ(extent.first_page, 0u);
  EXPECT_EQ(device.num_pages(), 3u);

  auto buf = Page(0xff);
  ASSERT_TRUE(device.ReadPage(2, buf).ok());
  EXPECT_EQ(buf, Page(0));
  ::unlink(device.options().path.c_str());
}

// Only a frame that is zero end to end is a fresh page. A written frame
// whose magic word was zeroed must not read back as a zero page. Writing
// the page again replaces the damaged frame whole.
TEST(FileDeviceTest, ZeroedMagicOnWrittenFrameIsCorruption) {
  FileDevice device(kPageSize, nullptr, Options("zeroed_magic"));
  ASSERT_TRUE(device.status().ok()) << device.status().ToString();
  device.AllocatePages(2);
  // A zero payload on page 0 is the nearest a written frame comes to a
  // fresh one: its page id is zero too, and only the checksum word differs.
  ASSERT_TRUE(device.WritePage(0, Page(0)).ok());
  ASSERT_TRUE(device.WritePage(1, Page(0x5a)).ok());
  const std::vector<std::byte> zero_magic(4);
  WriteRaw(device.options().path, 0, zero_magic);
  WriteRaw(device.options().path, device.frame_size(), zero_magic);

  auto buf = Page(0xff);
  EXPECT_EQ(device.ReadPage(0, buf).code(), StatusCode::kCorruption);
  EXPECT_EQ(device.ReadPage(1, buf).code(), StatusCode::kCorruption);

  ASSERT_TRUE(device.WritePage(1, Page(0x99)).ok());
  ASSERT_TRUE(device.ReadPage(1, buf).ok());
  EXPECT_EQ(buf, Page(0x99));
  EXPECT_EQ(device.ReadPage(0, buf).code(), StatusCode::kCorruption);
  ::unlink(device.options().path.c_str());
}

// The frame decoder fails closed: one flipped bit, or a burst of at most
// 32 bits, in a frame's magic, checksum, page id or payload always reads
// as Corruption — CRC-32 detects every burst that short, so no trial can
// pass by luck. The padding after the header fields and after the payload
// is left alone: the checksum does not cover it.
TEST(FileDeviceTest, DamagedFrameFieldsReadAsCorruption) {
  FileDevice device(kPageSize, nullptr, Options("hostile"));
  ASSERT_TRUE(device.status().ok()) << device.status().ToString();
  constexpr size_t kPages = 4;
  device.AllocatePages(kPages);
  Rng rng(53);
  std::vector<std::vector<std::byte>> payloads;
  for (PageId page = 0; page < kPages; ++page) {
    payloads.push_back(RandomPage(rng));
    ASSERT_TRUE(device.WritePage(page, payloads.back()).ok());
  }

  struct Field {
    const char* name;
    size_t begin;
    size_t end;
  };
  // Byte ranges within a frame (FileDevice's header layout).
  const Field fields[] = {{"magic", 0, 4},
                          {"checksum", 4, 8},
                          {"page id", 8, 16},
                          {"payload", 512, 512 + kPageSize}};
  const std::string& path = device.options().path;
  auto buf = Page(0);
  for (int trial = 0; trial < 400; ++trial) {
    const PageId page = rng.UniformInt(kPages);
    const Field& field = fields[rng.UniformInt(std::size(fields))];
    const size_t field_bits = (field.end - field.begin) * 8;
    const size_t burst =
        rng.UniformInt(2) == 0
            ? 1
            : 1 + rng.UniformInt(std::min<size_t>(32, field_bits));
    const size_t first_bit =
        field.begin * 8 + rng.UniformInt(field_bits - burst + 1);
    const size_t frame_offset = page * device.frame_size();
    const std::vector<std::byte> original =
        ReadRaw(path, frame_offset, device.frame_size());
    std::vector<std::byte> damaged = original;
    // Bits count least significant first within a byte, the order the
    // reflected CRC reads them, so this is a burst of the checksummed
    // message: its first and last bits flip, the ones between at random.
    for (size_t i = 0; i < burst; ++i) {
      if (i == 0 || i + 1 == burst || rng.UniformInt(2) == 1) {
        const size_t bit = first_bit + i;
        damaged[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
      }
    }
    WriteRaw(path, frame_offset, damaged);
    EXPECT_EQ(device.ReadPage(page, buf).code(), StatusCode::kCorruption)
        << "trial " << trial << ": " << burst << "-bit burst in the "
        << field.name << " of page " << page << " at bit " << first_bit;

    WriteRaw(path, frame_offset, original);
    ASSERT_TRUE(device.ReadPage(page, buf).ok()) << "trial " << trial;
    EXPECT_EQ(buf, payloads[page]) << "trial " << trial;
  }
  ::unlink(path.c_str());
}

TEST(FileDeviceTest, WriteReadRoundTripWithCounters) {
  FileDevice device(kPageSize, nullptr, Options("roundtrip"));
  ASSERT_TRUE(device.status().ok()) << device.status().ToString();
  device.AllocatePages(4);

  ASSERT_TRUE(device.WritePage(1, Page(0x5a)).ok());
  ASSERT_TRUE(device.WritePage(2, Page(0xa5)).ok());
  auto buf = Page(0);
  ASSERT_TRUE(device.ReadPage(1, buf).ok());
  EXPECT_EQ(buf, Page(0x5a));
  ASSERT_TRUE(device.ReadPage(2, buf).ok());
  EXPECT_EQ(buf, Page(0xa5));

  const DiskStats stats = device.stats();
  EXPECT_EQ(stats.page_writes, 2u);
  EXPECT_EQ(stats.page_reads, 2u);
  // write 1, write 2 (sequential), read 1, read 2 (sequential).
  EXPECT_EQ(stats.sequential_transfers, 2u);
  EXPECT_EQ(stats.random_transfers, 2u);

  const MeasuredIoStats measured = device.MeasuredStats();
  EXPECT_TRUE(measured.measured);
  EXPECT_EQ(measured.writes, 2u);
  EXPECT_EQ(measured.reads, 2u);
  ::unlink(device.options().path.c_str());
}

TEST(FileDeviceTest, ValidatesRangeAndBufferSize) {
  FileDevice device(kPageSize, nullptr, Options("validate"));
  ASSERT_TRUE(device.status().ok());
  device.AllocatePages(2);
  auto buf = Page(0);
  EXPECT_EQ(device.ReadPage(2, buf).code(), StatusCode::kOutOfRange);
  std::vector<std::byte> small(kPageSize / 2);
  EXPECT_EQ(device.WritePage(0, small).code(),
            StatusCode::kInvalidArgument);
  ::unlink(device.options().path.c_str());
}

// The simulated-counter surface must be bit-identical to SimulatedDisk for
// the same request sequence — that is what makes a file-backed run
// comparable to the paper's in-memory model.
TEST(FileDeviceTest, SimulatedCountersMatchSimulatedDisk) {
  FileDevice file(kPageSize, nullptr, Options("counters"));
  ASSERT_TRUE(file.status().ok());
  SimulatedDisk disk(kPageSize);
  file.AllocatePages(8);
  disk.AllocatePages(8);

  auto buf = Page(0);
  const PageId sequence[] = {0, 1, 2, 7, 3, 4, 4, 6, 5, 0};
  for (const PageId page : sequence) {
    ASSERT_TRUE(file.WritePage(page, Page(uint8_t(page))).ok());
    ASSERT_TRUE(disk.WritePage(page, Page(uint8_t(page))).ok());
  }
  for (const PageId page : sequence) {
    ASSERT_TRUE(file.ReadPage(page, buf).ok());
    ASSERT_TRUE(disk.ReadPage(page, buf).ok());
  }

  const DiskStats a = file.stats();
  const DiskStats b = disk.stats();
  EXPECT_EQ(a.page_reads, b.page_reads);
  EXPECT_EQ(a.page_writes, b.page_writes);
  EXPECT_EQ(a.sequential_transfers, b.sequential_transfers);
  EXPECT_EQ(a.random_transfers, b.random_transfers);
  // Same cost model (the default DiskCostParams) -> same estimate.
  EXPECT_DOUBLE_EQ(file.EstimateTimeMs(), disk.EstimateTimeMs());
  ::unlink(file.options().path.c_str());
}

TEST(FileDeviceTest, WritePagesBatchCountsLikeSingleWrites) {
  FileDevice device(kPageSize, nullptr, Options("batch"));
  ASSERT_TRUE(device.status().ok());
  device.AllocatePages(6);

  std::vector<std::vector<std::byte>> payloads;
  for (uint8_t i = 0; i < 5; ++i) payloads.push_back(Page(i + 1));
  std::vector<PageWriteRequest> batch;
  for (size_t i = 0; i < payloads.size(); ++i) {
    batch.push_back({static_cast<PageId>(i), payloads[i]});
  }
  size_t written = 0;
  ASSERT_TRUE(device.WritePages(batch.data(), batch.size(), &written).ok());
  EXPECT_EQ(written, 5u);

  const DiskStats stats = device.stats();
  EXPECT_EQ(stats.page_writes, 5u);
  EXPECT_EQ(stats.sequential_transfers, 4u);

  const MeasuredIoStats measured = device.MeasuredStats();
  EXPECT_EQ(measured.writes, 5u);
  EXPECT_EQ(measured.batches, 1u);
  EXPECT_EQ(measured.fsyncs, 1u);  // sync_on_barrier default.

  auto buf = Page(0);
  for (size_t i = 0; i < payloads.size(); ++i) {
    ASSERT_TRUE(device.ReadPage(i, buf).ok());
    EXPECT_EQ(buf, payloads[i]) << "page " << i;
  }
  ::unlink(device.options().path.c_str());
}

// A request the device rejects stops a batch where it stands: the pages
// accepted before it are counted and on disk, `*written` says how many,
// and nothing after it is submitted.
TEST(FileDeviceTest, RejectedRequestStopsBatchMidway) {
  FileDevice device(kPageSize, nullptr, Options("batch_stop"));
  ASSERT_TRUE(device.status().ok());
  device.AllocatePages(4);

  std::vector<std::vector<std::byte>> payloads;
  for (uint8_t i = 0; i < 4; ++i) payloads.push_back(Page(i + 1));
  // Page 9 is beyond the device's end.
  const std::vector<PageWriteRequest> batch = {
      {0, payloads[0]}, {1, payloads[1]}, {9, payloads[2]}, {2, payloads[3]}};
  size_t written = 0;
  const Status status =
      device.WritePages(batch.data(), batch.size(), &written);
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange) << status.ToString();
  EXPECT_EQ(written, 2u);
  EXPECT_EQ(device.stats().page_writes, 2u);
  EXPECT_EQ(device.MeasuredStats().writes, 2u);

  auto buf = Page(0xff);
  ASSERT_TRUE(device.ReadPage(0, buf).ok());
  EXPECT_EQ(buf, payloads[0]);
  ASSERT_TRUE(device.ReadPage(1, buf).ok());
  EXPECT_EQ(buf, payloads[1]);
  ASSERT_TRUE(device.ReadPage(2, buf).ok());  // Never submitted: zeros.
  EXPECT_EQ(buf, Page(0));
  ::unlink(device.options().path.c_str());
}

// A page written several times in one batch keeps its last write, and the
// file's bytes do not depend on how many executors ran the batch. Each
// page is written twice in a row, three times over: executors that took
// both writes of a pair at once could land either one last. Such a race
// is rare in any one batch, so each device runs the batch many times.
TEST(FileDeviceTest, DuplicatePageInBatchKeepsLastWrite) {
  constexpr size_t kPages = 64;
  constexpr size_t kRequests = 3 * 2 * kPages;
  constexpr size_t kRepeats = 20;
  std::vector<std::vector<std::byte>> payloads;
  for (size_t i = 0; i < kRequests; ++i) {
    payloads.push_back(Page(static_cast<uint8_t>(i + 1)));
  }
  std::vector<PageWriteRequest> batch;
  for (size_t i = 0; i < kRequests; ++i) {
    batch.push_back({static_cast<PageId>(i / 2 % kPages), payloads[i]});
  }

  std::vector<std::vector<std::byte>> images;
  for (const int threads : {1, 4}) {
    FileDeviceOptions options = Options("dup" + std::to_string(threads));
    options.io_threads = threads;
    options.sync_on_barrier = false;
    FileDevice device(kPageSize, nullptr, options);
    ASSERT_TRUE(device.status().ok());
    device.AllocatePages(kPages);
    for (size_t repeat = 0; repeat < kRepeats; ++repeat) {
      size_t written = 0;
      ASSERT_TRUE(
          device.WritePages(batch.data(), batch.size(), &written).ok());
      EXPECT_EQ(written, batch.size());
      images.push_back(
          ReadRaw(device.options().path, 0, kPages * device.frame_size()));
    }
    EXPECT_EQ(device.stats().page_writes, kRepeats * batch.size());

    auto buf = Page(0);
    for (PageId page = 0; page < kPages; ++page) {
      ASSERT_TRUE(device.ReadPage(page, buf).ok());
      EXPECT_EQ(buf, payloads[kRequests - 2 * kPages + 2 * page + 1])
          << "page " << page << ", " << threads << " executors";
    }
    ::unlink(device.options().path.c_str());
  }
  for (size_t i = 1; i < images.size(); ++i) {
    EXPECT_TRUE(images[i] == images[0]) << "batch " << i << " of "
                                        << images.size();
  }
}

// A batch whose writes fail reports the first failing request in
// submission order, whichever executor failed first on the clock.
TEST(FileDeviceTest, FailedBatchReportsFirstFailureInSubmissionOrder) {
  constexpr size_t kPages = 8;
  FileDeviceOptions options = Options("efbig");
  options.io_threads = 4;
  FileDevice device(kPageSize, nullptr, options);
  ASSERT_TRUE(device.status().ok());
  device.AllocatePages(kPages);

  const auto payload = Page(0x6b);
  // Failing frames 6, 5 and 7 come after good ones, and before more.
  const PageId order[] = {1, 6, 2, 5, 0, 7, 3};
  std::vector<PageWriteRequest> batch;
  for (const PageId page : order) batch.push_back({page, payload});
  std::vector<Status> statuses;
  Status single;
  WithFileSizeLimit(4 * device.frame_size(), [&] {  // Frames 4.. fail.
    for (int trial = 0; trial < 20; ++trial) {
      statuses.push_back(
          device.WritePages(batch.data(), batch.size(), nullptr));
    }
    // A lone failing write reports the same way.
    single = device.WritePage(4, payload);
  });

  ASSERT_EQ(statuses.size(), 20u);
  for (const Status& status : statuses) {
    EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
    EXPECT_NE(status.message().find("pwrite of page 6 "), std::string::npos)
        << status.ToString();
  }
  EXPECT_EQ(single.code(), StatusCode::kIoError);
  EXPECT_NE(single.message().find("pwrite of page 4 "), std::string::npos)
      << single.ToString();
  // The good frames landed.
  auto buf = Page(0);
  ASSERT_TRUE(device.ReadPage(2, buf).ok());
  EXPECT_EQ(buf, payload);
  ::unlink(device.options().path.c_str());
}

// AllocatePages extends the file over every frame it hands out, so a
// frame the file no longer holds was truncated away: it reads as
// Corruption naming the page, never as a fresh zero page.
TEST(FileDeviceTest, TruncatedFileReadsAsCorruption) {
  FileDeviceOptions options = Options("truncated");
  options.readahead_pages = 8;
  FileDevice device(kPageSize, nullptr, options);
  ASSERT_TRUE(device.status().ok());
  device.AllocatePages(4);
  ASSERT_TRUE(device.WritePage(3, Page(0x3c)).ok());
  ASSERT_TRUE(device.WritePage(1, Page(0x1c)).ok());
  ASSERT_EQ(::truncate(device.options().path.c_str(),
                       static_cast<off_t>(3 * device.frame_size())),
            0);

  auto buf = Page(0xff);
  const Status status = device.ReadPage(3, buf);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  EXPECT_NE(status.message().find("page 3 "), std::string::npos)
      << status.ToString();
  // A prefetch over the cut stages nothing; the frames still in the file
  // read as written.
  const PageId pages[] = {1, 3};
  device.Prefetch(pages);
  EXPECT_EQ(device.MeasuredStats().prefetched_pages, 0u);
  ASSERT_TRUE(device.ReadPage(1, buf).ok());
  EXPECT_EQ(buf, Page(0x1c));
  EXPECT_EQ(device.ReadPage(3, buf).code(), StatusCode::kCorruption);
  ::unlink(device.options().path.c_str());
}

// A write the kernel refuses whole fails cleanly: the page keeps its old
// bytes and the failed write is not counted.
TEST(FileDeviceTest, CleanWriteFaultLeavesOldBytes) {
  FileDevice device(kPageSize, nullptr, Options("clean_fault"));
  ASSERT_TRUE(device.status().ok());
  device.AllocatePages(2);
  ASSERT_TRUE(device.WritePage(1, Page(0x77)).ok());
  const uint64_t writes = device.stats().page_writes;

  Status status;
  WithFileSizeLimit(device.frame_size(), [&] {  // Frame 1 is past the cap.
    status = device.WritePage(1, Page(0x88));
  });
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
  EXPECT_EQ(device.stats().page_writes, writes);

  auto buf = Page(0);
  ASSERT_TRUE(device.ReadPage(1, buf).ok());
  EXPECT_EQ(buf, Page(0x77));
  ::unlink(device.options().path.c_str());
}

// A short write leaves a frame whose checksum no longer covers the bytes
// on disk: the next read must surface Corruption, not stale data.
TEST(FileDeviceTest, ShortWriteFaultLeavesDetectableCorruption) {
  FileDevice device(kPageSize, nullptr, Options("short_fault"));
  ASSERT_TRUE(device.status().ok());
  device.AllocatePages(2);
  ASSERT_TRUE(device.WritePage(0, Page(0x77)).ok());

  // The cap falls halfway through frame 0's payload (at byte 512): the
  // new header and half the new payload land over the old frame.
  Status status;
  WithFileSizeLimit(512 + kPageSize / 2, [&] {
    status = device.WritePage(0, Page(0x88));
  });
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();

  auto buf = Page(0);
  status = device.ReadPage(0, buf);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("checksum mismatch on page 0 "),
            std::string::npos)
      << status.ToString();
  // Untouched pages still read fine.
  ASSERT_TRUE(device.ReadPage(1, buf).ok());
  EXPECT_EQ(buf, Page(0));

  // Rewriting the damaged page heals it.
  ASSERT_TRUE(device.WritePage(0, Page(0x99)).ok());
  ASSERT_TRUE(device.ReadPage(0, buf).ok());
  EXPECT_EQ(buf, Page(0x99));
  ::unlink(device.options().path.c_str());
}

// The cap falls halfway through the payload of a batch's third frame: that
// frame is torn and the fourth is refused whole. Only the torn page is
// damaged, and the batch reports it.
TEST(FileDeviceTest, TornPageFaultInBatchDamagesOnlyFaultedPage) {
  FileDevice device(kPageSize, nullptr, Options("torn_fault"));
  ASSERT_TRUE(device.status().ok());
  device.AllocatePages(4);

  std::vector<std::vector<std::byte>> payloads;
  for (uint8_t i = 0; i < 4; ++i) payloads.push_back(Page(i + 1));
  std::vector<PageWriteRequest> batch;
  for (size_t i = 0; i < payloads.size(); ++i) {
    batch.push_back({static_cast<PageId>(i), payloads[i]});
  }
  size_t written = batch.size();
  Status status;
  WithFileSizeLimit(2 * device.frame_size() + 512 + kPageSize / 2, [&] {
    status = device.WritePages(batch.data(), batch.size(), &written);
  });
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("pwrite of page 2 "), std::string::npos)
      << status.ToString();
  // Which frames of a failed batch landed is not reported: the caller
  // keeps every page of it dirty.
  EXPECT_EQ(written, 0u);

  auto buf = Page(0);
  ASSERT_TRUE(device.ReadPage(0, buf).ok());
  EXPECT_EQ(buf, payloads[0]);
  ASSERT_TRUE(device.ReadPage(1, buf).ok());
  EXPECT_EQ(buf, payloads[1]);
  status = device.ReadPage(2, buf);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("checksum mismatch on page 2 "),
            std::string::npos)
      << status.ToString();
  ASSERT_TRUE(device.ReadPage(3, buf).ok());  // Refused whole: zeros.
  EXPECT_EQ(buf, Page(0));
  ::unlink(device.options().path.c_str());
}

TEST(FileDeviceTest, PrefetchServesReadsFromCache) {
  FileDeviceOptions options = Options("prefetch");
  options.readahead_pages = 8;
  FileDevice device(kPageSize, nullptr, options);
  ASSERT_TRUE(device.status().ok());
  device.AllocatePages(4);
  for (PageId p = 0; p < 4; ++p) {
    ASSERT_TRUE(device.WritePage(p, Page(uint8_t(p + 1))).ok());
  }

  const PageId pages[] = {0, 1, 2, 3};
  device.Prefetch(pages);
  const MeasuredIoStats after_prefetch = device.MeasuredStats();
  EXPECT_EQ(after_prefetch.prefetched_pages, 4u);
  EXPECT_EQ(after_prefetch.reads, 4u);  // One physical batch read each.

  auto buf = Page(0);
  ASSERT_TRUE(device.ReadPage(2, buf).ok());
  EXPECT_EQ(buf, Page(3));
  const MeasuredIoStats after_read = device.MeasuredStats();
  // Served from the cache: no new physical read, but one simulated read.
  EXPECT_EQ(after_read.reads, 4u);
  EXPECT_EQ(after_read.readahead_hits, 1u);
  EXPECT_EQ(device.stats().page_reads, 1u);

  // Consume-on-hit: a second read of the same page goes to the file.
  ASSERT_TRUE(device.ReadPage(2, buf).ok());
  EXPECT_EQ(device.MeasuredStats().reads, 5u);
  ::unlink(device.options().path.c_str());
}

TEST(FileDeviceTest, WriteInvalidatesPrefetchedPage) {
  FileDeviceOptions options = Options("prefetch_inval");
  options.readahead_pages = 8;
  FileDevice device(kPageSize, nullptr, options);
  ASSERT_TRUE(device.status().ok());
  device.AllocatePages(2);
  ASSERT_TRUE(device.WritePage(0, Page(1)).ok());
  const PageId pages[] = {0};
  device.Prefetch(pages);

  ASSERT_TRUE(device.WritePage(0, Page(2)).ok());
  auto buf = Page(0);
  ASSERT_TRUE(device.ReadPage(0, buf).ok());
  EXPECT_EQ(buf, Page(2));  // Fresh bytes, not the stale staged copy.
  EXPECT_EQ(device.MeasuredStats().readahead_hits, 0u);
  ::unlink(device.options().path.c_str());
}

TEST(FileDeviceTest, ObserverSeesBatchSyncAndReadAheadEvents) {
  struct Sink : SimObserver {
    std::vector<DeviceBatchEvent> batches;
    std::vector<DeviceSyncEvent> syncs;
    std::vector<ReadAheadEvent> readaheads;
    void OnDeviceBatch(const DeviceBatchEvent& event) override {
      batches.push_back(event);
    }
    void OnDeviceSync(const DeviceSyncEvent& event) override {
      syncs.push_back(event);
    }
    void OnReadAhead(const ReadAheadEvent& event) override {
      readaheads.push_back(event);
    }
  } sink;

  FileDeviceOptions options = Options("observer");
  options.readahead_pages = 8;
  FileDevice device(kPageSize, nullptr, options);
  ASSERT_TRUE(device.status().ok());
  device.set_observer(&sink);
  device.AllocatePages(4);

  std::vector<std::vector<std::byte>> payloads{Page(1), Page(2)};
  PageWriteRequest batch[] = {{0, payloads[0]}, {1, payloads[1]}};
  ASSERT_TRUE(device.WritePages(batch, 2, nullptr).ok());
  ASSERT_EQ(sink.batches.size(), 2u);  // submitted + completed.
  EXPECT_TRUE(sink.batches[0].is_write);
  EXPECT_FALSE(sink.batches[0].completed);
  EXPECT_EQ(sink.batches[0].pages, 2u);
  EXPECT_TRUE(sink.batches[1].completed);
  EXPECT_EQ(sink.batches[1].ordinal, 1u);
  ASSERT_EQ(sink.syncs.size(), 1u);  // The barrier fsync.
  EXPECT_EQ(sink.syncs[0].ordinal, 1u);

  const PageId pages[] = {0, 1};
  device.Prefetch(pages);
  ASSERT_EQ(sink.readaheads.size(), 1u);
  EXPECT_EQ(sink.readaheads[0].requested_pages, 2u);
  EXPECT_EQ(sink.readaheads[0].installed_pages, 2u);
  ::unlink(device.options().path.c_str());
}

TEST(FileDeviceTest, DirectIoRequestOpensOrFallsBack) {
  FileDeviceOptions options = Options("direct");
  options.direct_io = true;
  FileDevice device(kPageSize, nullptr, options);
  // tmpfs refuses O_DIRECT; either way the device must be fully usable.
  ASSERT_TRUE(device.status().ok()) << device.status().ToString();
  device.AllocatePages(2);
  ASSERT_TRUE(device.WritePage(0, Page(0xcd)).ok());
  auto buf = Page(0);
  ASSERT_TRUE(device.ReadPage(0, buf).ok());
  EXPECT_EQ(buf, Page(0xcd));
  ::unlink(device.options().path.c_str());
}

}  // namespace
}  // namespace odbgc
