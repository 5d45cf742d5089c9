#include "storage/io_scheduler.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace odbgc {
namespace {

constexpr size_t kBlock = 4096;

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "odbgc_iosched_" + name;
  ::unlink(path.c_str());
  return path;
}

int OpenRw(const std::string& path) {
  return ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
}

std::vector<std::byte> Block(uint8_t fill) {
  return std::vector<std::byte>(kBlock, std::byte{fill});
}

std::vector<std::byte> ReadWholeFile(const std::string& path) {
  std::vector<std::byte> bytes;
  const int fd = ::open(path.c_str(), O_RDONLY);
  EXPECT_GE(fd, 0);
  std::byte buf[kBlock];
  ssize_t n = 0;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  ::close(fd);
  return bytes;
}

TEST(IoSchedulerTest, WritesThenReadsRoundTrip) {
  const std::string path = TempPath("roundtrip");
  const int fd = OpenRw(path);
  ASSERT_GE(fd, 0);

  IoScheduler scheduler;
  std::vector<std::vector<std::byte>> blocks;
  for (uint8_t i = 0; i < 8; ++i) blocks.push_back(Block(i + 1));
  for (size_t i = 0; i < blocks.size(); ++i) {
    scheduler.SubmitWrite(fd, i * kBlock, blocks[i]);
  }
  ASSERT_TRUE(scheduler.Drain().ok());
  EXPECT_EQ(scheduler.jobs_completed(), 8u);

  std::vector<std::vector<std::byte>> read(blocks.size(), Block(0));
  for (size_t i = 0; i < read.size(); ++i) {
    scheduler.SubmitRead(fd, i * kBlock, read[i]);
  }
  ASSERT_TRUE(scheduler.Drain().ok());
  for (size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(read[i], blocks[i]) << "block " << i;
  }
  ::close(fd);
  ::unlink(path.c_str());
}

TEST(IoSchedulerTest, ReadPastEofZeroFills) {
  const std::string path = TempPath("eof");
  const int fd = OpenRw(path);
  ASSERT_GE(fd, 0);
  IoScheduler scheduler;
  auto block = Block(0xff);
  scheduler.SubmitRead(fd, 10 * kBlock, block);
  ASSERT_TRUE(scheduler.Drain().ok());
  EXPECT_EQ(block, Block(0));
  ::close(fd);
  ::unlink(path.c_str());
}

// The determinism acceptance check: disjoint-range batches must produce
// byte-identical files regardless of worker count (and therefore of
// completion order).
TEST(IoSchedulerTest, FileBytesIndependentOfThreadCount) {
  std::vector<std::vector<std::byte>> images;
  for (const int threads : {1, 2, 8}) {
    const std::string path =
        TempPath("threads" + std::to_string(threads));
    const int fd = OpenRw(path);
    ASSERT_GE(fd, 0);

    IoSchedulerOptions options;
    options.threads = threads;
    IoScheduler scheduler(options);
    EXPECT_EQ(scheduler.threads(), threads);

    // Several batches of disjoint offsets, submitted in a scattered order
    // so multi-threaded completion order actually varies.
    std::vector<std::vector<std::byte>> blocks;
    for (int i = 0; i < 64; ++i) {
      blocks.push_back(Block(static_cast<uint8_t>(i * 37 + 11)));
    }
    for (int batch = 0; batch < 4; ++batch) {
      for (int i = 0; i < 16; ++i) {
        const int slot = batch * 16 + ((i * 7) % 16);
        scheduler.SubmitWrite(fd, static_cast<uint64_t>(slot) * kBlock,
                              blocks[slot]);
      }
      ASSERT_TRUE(scheduler.Drain().ok());
    }
    ::close(fd);
    images.push_back(ReadWholeFile(path));
    ::unlink(path.c_str());
  }
  ASSERT_EQ(images[0].size(), 64u * kBlock);
  EXPECT_EQ(images[0], images[1]);
  EXPECT_EQ(images[0], images[2]);
}

// Drain reports the FIRST failure in submission order, not whichever
// thread happened to fail first on the clock. A one-job batch runs on the
// draining thread itself; its failure must surface the same way.
TEST(IoSchedulerTest, DrainReportsFirstErrorInSubmissionOrder) {
  const std::string path = TempPath("errors");
  const int fd = OpenRw(path);
  ASSERT_GE(fd, 0);

  IoSchedulerOptions options;
  options.threads = 4;
  IoScheduler scheduler(options);

  auto good = Block(1);
  auto sink = Block(0);
  // Two bad jobs (invalid fd): a read, then a write. The earlier
  // submission must win, so the error names pread.
  scheduler.SubmitWrite(fd, 0, good);
  scheduler.SubmitRead(-2, kBlock, sink);
  scheduler.SubmitWrite(-3, 2 * kBlock, good);
  Status status = scheduler.Drain();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("pread"), std::string::npos)
      << status.ToString();

  // The batch is cleared: the scheduler is reusable after a failure.
  scheduler.SubmitWrite(fd, 0, good);
  EXPECT_TRUE(scheduler.Drain().ok());

  // A one-job failing batch.
  scheduler.SubmitWrite(-4, 0, good);
  status = scheduler.Drain();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("pwrite"), std::string::npos)
      << status.ToString();

  scheduler.SubmitWrite(fd, kBlock, good);
  EXPECT_TRUE(scheduler.Drain().ok());
  EXPECT_EQ(scheduler.jobs_completed(), 6u);
  ::close(fd);
  ::unlink(path.c_str());
}

// Several producers share one scheduler, each serializing its batches
// through AcquireProducerLock: while one producer drains, it runs the
// jobs no worker has claimed as both workers run others. One-job and
// sixteen-job batches alternate, so batches that stay on the producer
// thread interleave with batches that fan out. Every file must end up
// byte-equal to its expected image.
TEST(IoSchedulerTest, SharedSchedulerServesConcurrentProducers) {
  constexpr int kProducers = 4;
  constexpr int kBlocksPerFile = 64;
  constexpr int kRounds = 8;

  IoSchedulerOptions options;
  options.threads = 2;
  IoScheduler scheduler(options);

  // The fill of `slot` in producer `p`'s file after round `r`: distinct
  // across slots of one file, and across producers and rounds.
  const auto fill = [](int p, int slot, int r) {
    return static_cast<uint8_t>(p * 67 + slot * 13 + r * 29 + 5);
  };
  const auto batch_size = [](int batch) { return batch % 2 == 0 ? 1 : 16; };

  std::vector<std::string> paths;
  std::vector<std::string> failures(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    paths.push_back(TempPath("shared" + std::to_string(p)));
  }
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::string& failure = failures[p];
      const int fd = OpenRw(paths[p]);
      if (fd < 0) {
        failure = "open failed";
        return;
      }
      std::vector<std::vector<std::byte>> blocks(kBlocksPerFile);
      for (int r = 0; r < kRounds && failure.empty(); ++r) {
        // Write the round's image in alternating 1- and 16-job batches.
        for (int slot = 0, batch = 0; slot < kBlocksPerFile; ++batch) {
          const int end = std::min(kBlocksPerFile, slot + batch_size(batch));
          auto lock = scheduler.AcquireProducerLock();
          for (; slot < end; ++slot) {
            blocks[slot] = Block(fill(p, slot, r));
            scheduler.SubmitWrite(fd, static_cast<uint64_t>(slot) * kBlock,
                                  blocks[slot]);
          }
          if (!scheduler.Drain().ok()) failure = "write batch failed";
        }
        // Read it back the same way, the 16-job batches first, checking
        // each batch as soon as Drain returns: every job of it, whichever
        // thread ran it, must have finished by then.
        std::vector<std::vector<std::byte>> read(kBlocksPerFile, Block(0));
        for (int slot = 0, batch = 1; slot < kBlocksPerFile; ++batch) {
          const int first = slot;
          const int end = std::min(kBlocksPerFile, slot + batch_size(batch));
          auto lock = scheduler.AcquireProducerLock();
          for (; slot < end; ++slot) {
            scheduler.SubmitRead(fd, static_cast<uint64_t>(slot) * kBlock,
                                 read[slot]);
          }
          if (!scheduler.Drain().ok()) failure = "read batch failed";
          for (int i = first; i < end; ++i) {
            if (read[i] != blocks[i]) failure = "read back wrong bytes";
          }
        }
      }
      ::close(fd);
    });
  }
  for (std::thread& producer : producers) producer.join();

  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(failures[p], "") << "producer " << p;
    std::vector<std::byte> expected;
    for (int slot = 0; slot < kBlocksPerFile; ++slot) {
      const auto block = Block(fill(p, slot, kRounds - 1));
      expected.insert(expected.end(), block.begin(), block.end());
    }
    EXPECT_EQ(ReadWholeFile(paths[p]), expected) << "producer " << p;
    ::unlink(paths[p].c_str());
  }
  EXPECT_EQ(scheduler.jobs_completed(),
            uint64_t{2} * kProducers * kRounds * kBlocksPerFile);
}

TEST(IoSchedulerTest, DrainOnEmptyQueueIsOk) {
  IoScheduler scheduler;
  EXPECT_TRUE(scheduler.Drain().ok());
  EXPECT_TRUE(scheduler.Drain().ok());
  EXPECT_EQ(scheduler.jobs_completed(), 0u);
}

TEST(IoSchedulerTest, BackendNameAndDetection) {
  EXPECT_STREQ(IoBackendName(IoBackend::kThreadPool), "thread_pool");
  EXPECT_STREQ(IoBackendName(IoBackend::kIoUring), "io_uring");
  // Whatever DetectIoBackend picks, constructing with it must work.
  IoSchedulerOptions options;
  options.backend = DetectIoBackend();
  IoScheduler scheduler(options);
  EXPECT_TRUE(scheduler.Drain().ok());
}

}  // namespace
}  // namespace odbgc
