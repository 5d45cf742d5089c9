#ifndef ODBGC_STORAGE_FILE_DEVICE_H_
#define ODBGC_STORAGE_FILE_DEVICE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "storage/disk.h"
#include "storage/page_device.h"
#include "storage/read_ahead.h"
#include "util/fork_join_pool.h"

namespace odbgc {

struct FileDeviceOptions {
  /// Path of the partition file. Opened with create+truncate: the file is
  /// working storage for one run, which a rerun reproduces.
  std::string path;
  /// Request O_DIRECT. Falls back to buffered when the filesystem refuses
  /// (tmpfs does); `direct_io_effective()` reports what actually happened.
  bool direct_io = false;
  /// fsync at the end of every WritePages batch (and on Sync()).
  bool sync_on_barrier = true;
  /// Read-ahead cache capacity in pages. 0 disables prefetching.
  size_t readahead_pages = 64;
  /// Executors for a multi-page batch (a Prefetch or a WritePages), the
  /// calling thread included; 0 = hardware concurrency. A single-page
  /// transfer always runs on the calling thread, so the default of 1
  /// starts no thread at all.
  int io_threads = 1;
  /// Timing model used for EstimateTimeMs, so estimated device time is
  /// comparable with a SimulatedDisk run of the same workload. Measured
  /// wall time is reported separately (MeasuredStats).
  DiskCostParams cost;
};

/// PageDevice over a real partition file: pread/pwrite on the calling
/// thread, multi-page batches fanned out over a ForkJoinPool, optional
/// O_DIRECT, checksummed page frames, fsync barriers, and a read-ahead
/// cache fed by Prefetch hints.
///
/// Layout: page `p` lives in frame `p` at offset `p * frame_size`. A
/// frame is a 512-byte header sector (magic, page id, payload CRC-32)
/// followed by the payload, the whole frame padded to a 4096-byte
/// multiple so the same layout works buffered and O_DIRECT. An all-zero
/// frame (freshly allocated, never written) reads as an all-zero page,
/// matching SimulatedDisk's zero-filled allocations. A frame with any
/// other damage to its magic, page id, checksum or payload reads as
/// Corruption — that is what a short or torn write leaves behind.
/// So does a frame the file no longer holds in full: AllocatePages extends
/// the file over every frame it hands out, so end of file inside one means
/// the file was truncated. The checksum does not cover the header's
/// padding or the frame's tail padding.
///
/// Determinism contract: the simulated transfer counters (CountRead/
/// CountWrite and their sequential/random classification) are charged on
/// the calling thread in request order — never from pool workers — so a
/// run on this backend produces bit-identical simulated results to the
/// same run on SimulatedDisk, regardless of thread count or completion
/// order. A batch's frames cover disjoint file ranges (WritePages writes
/// out what it holds before it takes a page a second time), so the file's
/// bytes do not depend on them either, and a failed batch reports its
/// first failing request in submission order. Real I/O activity is
/// tracked separately in MeasuredIoStats.
class FileDevice : public PageDevice {
 public:
  /// Opens (create + truncate) the partition file. Check `status()` after
  /// construction; every transfer fails fast when the open failed.
  FileDevice(size_t page_size, MetricsRegistry* registry,
             const FileDeviceOptions& options);
  ~FileDevice() override;

  DeviceKind kind() const override { return DeviceKind::kFile; }

  PageExtent AllocatePages(size_t count) override;
  Status ReadPage(PageId page, std::span<std::byte> out) override;
  Status WritePage(PageId page, std::span<const std::byte> in) override;
  Status WritePages(const PageWriteRequest* requests, size_t count,
                    size_t* written) override;
  void Prefetch(std::span<const PageId> pages) override;
  Status Sync() override;

  size_t num_pages() const override { return num_pages_; }
  double EstimateTimeMs() const override {
    return EstimateDiskTimeMs(stats(), options_.cost);
  }

  MeasuredIoStats MeasuredStats() const override;

  /// Construction/open status. Ok when the file is usable.
  const Status& status() const { return status_; }

  /// True when the file is actually open O_DIRECT (request honored).
  bool direct_io_effective() const { return direct_io_effective_; }

  const FileDeviceOptions& options() const { return options_; }

  /// Bytes of file backing one page (header sector + padded payload).
  size_t frame_size() const { return frame_size_; }

 private:
  // Encodes `payload` as a full frame for `page` into `frame` (frame_size_
  // bytes: header + payload + zero padding).
  void EncodeFrame(PageId page, std::span<const std::byte> payload,
                   std::byte* frame) const;
  // Validates `frame` and copies its payload into `out`. An all-zero frame
  // is a never-written page: `out` is zero-filled.
  Status DecodeFrame(PageId page, const std::byte* frame,
                     std::span<std::byte> out) const;

  Status ValidateTransfer(const char* op, PageId page, size_t buffer_size);

  // Reads frame `page` from the file into `out` (page payload), counting
  // measured I/O. Does NOT touch simulated counters or the cache.
  Status PhysicalRead(PageId page, std::span<std::byte> out);

  // Whole-frame pread/pwrite of frame `page` to or from `frame`. Safe on
  // any executor: they touch only the file and `frame`.
  Status ReadFrame(PageId page, std::byte* frame) const;
  Status WriteFrame(PageId page, const std::byte* frame) const;

  // Runs transfer(0) .. transfer(n - 1) as one batch over pool_ and
  // returns the first failure in index order, whichever executor hit it.
  Status RunBatch(size_t n, const std::function<Status(size_t)>& transfer);

  uint64_t FrameOffset(PageId page) const { return page * frame_size_; }

  void PublishBatch(bool is_write, uint64_t pages, bool completed,
                    uint64_t wall_ns);
  void PublishSync(uint64_t wall_ns);

  FileDeviceOptions options_;
  Status status_;
  int fd_ = -1;
  bool direct_io_effective_ = false;
  size_t frame_size_ = 0;
  size_t num_pages_ = 0;

  // Executors for multi-page batches (options_.io_threads of them).
  ForkJoinPool pool_;
  ReadAhead readahead_;

  // Scratch frame buffer for synchronous single-page transfers, aligned
  // for O_DIRECT.
  std::byte* scratch_ = nullptr;

  // Real-I/O accounting (never feeds the metrics registry).
  uint64_t measured_reads_ = 0;
  uint64_t measured_writes_ = 0;
  uint64_t measured_fsyncs_ = 0;
  uint64_t measured_batches_ = 0;
  uint64_t prefetched_pages_ = 0;
  double measured_wall_ns_ = 0.0;
};

}  // namespace odbgc

#endif  // ODBGC_STORAGE_FILE_DEVICE_H_
