#ifndef ODBGC_STORAGE_FILE_DEVICE_H_
#define ODBGC_STORAGE_FILE_DEVICE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "storage/disk.h"
#include "storage/io_scheduler.h"
#include "storage/page_device.h"
#include "storage/read_ahead.h"

namespace odbgc {

struct FileDeviceOptions {
  /// Path of the partition file. Opened with create+truncate: the file is
  /// working storage (durability is the WAL/checkpoint layer's job), and
  /// ObjectStore::Restore requires an empty device to rematerialize into.
  std::string path;
  /// Request O_DIRECT. Falls back to buffered when the filesystem refuses
  /// (tmpfs does); `direct_io_effective()` reports what actually happened.
  bool direct_io = false;
  /// fsync at the end of every WritePages batch (and on Sync()).
  bool sync_on_barrier = true;
  /// Read-ahead cache capacity in pages. 0 disables prefetching.
  size_t readahead_pages = 64;
  /// Worker threads for the I/O scheduler (0 = hardware concurrency). They
  /// serve multi-page batches; a single-page transfer runs on the calling
  /// thread.
  int io_threads = 0;
  /// Preferred scheduler backend (degrades to the thread pool when
  /// io_uring is unavailable).
  IoBackend backend = IoBackend::kThreadPool;
  /// Timing model used for EstimateTimeMs, so estimated device time is
  /// comparable with a SimulatedDisk run of the same workload. Measured
  /// wall time is reported separately (MeasuredStats).
  DiskCostParams cost;
  /// Optional externally-owned IoScheduler shared with other devices
  /// (non-owning; must outlive the device). When set, io_threads/backend
  /// are ignored and every submit+Drain batch runs under the scheduler's
  /// producer lock, so many file devices — the parallel experiment grid's
  /// per-run backends — share one worker pool instead of spawning one
  /// each. Null (the default) keeps a private scheduler.
  IoScheduler* shared_scheduler = nullptr;
};

/// PageDevice over a real partition file: pread/pwrite through an
/// IoScheduler, optional O_DIRECT, checksummed page frames, fsync
/// barriers, and a read-ahead cache fed by Prefetch hints.
///
/// Layout: page `p` lives in frame `p` at offset `p * frame_size`. A
/// frame is a 512-byte header sector (magic, page id, payload CRC-32)
/// followed by the payload, the whole frame padded to a 4096-byte
/// multiple so the same layout works buffered and O_DIRECT. An all-zero
/// frame (freshly allocated, never written) reads as an all-zero page,
/// matching SimulatedDisk's zero-filled allocations. A frame with any
/// other damage to its magic, page id, checksum or payload reads as
/// Corruption — that is what an injected short/torn write leaves behind.
/// The checksum does not cover the header's padding or the frame's tail
/// padding.
///
/// Determinism contract: the simulated transfer counters (CountRead/
/// CountWrite and their sequential/random classification) are charged on
/// the calling thread in request order — never from scheduler workers —
/// so a run on this backend produces bit-identical simulated results to
/// the same run on SimulatedDisk, regardless of thread count or
/// completion order. Real I/O activity is tracked separately in
/// MeasuredIoStats.
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

  void SaveState(std::ostream& out) const override;
  Status LoadState(std::istream& in) override;

  MeasuredIoStats MeasuredStats() const override;

  /// Construction/open status. Ok when the file is usable.
  const Status& status() const { return status_; }

  /// True when the file is actually open O_DIRECT (request honored).
  bool direct_io_effective() const { return direct_io_effective_; }

  const FileDeviceOptions& options() const { return options_; }
  const IoScheduler& scheduler() const { return *scheduler_ptr_; }
  /// True when this device runs on an externally-owned scheduler.
  bool shares_scheduler() const { return options_.shared_scheduler != nullptr; }

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

  Status ValidateTransfer(const char* op, PageId page, size_t buffer_size,
                          bool is_write);

  // Physically damages frame `page` the way the armed plan's
  // write_fault_style dictates (no-op for kClean).
  void ApplyWriteFaultDamage(PageId page, std::span<const std::byte> in);

  // Reads frame `page` from the file into `out` (page payload), counting
  // measured I/O. Does NOT touch simulated counters or the cache.
  Status PhysicalRead(PageId page, std::span<std::byte> out);

  uint64_t FrameOffset(PageId page) const { return page * frame_size_; }

  // Serializes one whole submit+Drain batch against sibling devices on a
  // shared scheduler. A no-op (empty lock) with a private scheduler.
  std::unique_lock<std::mutex> BatchLock() {
    return shares_scheduler() ? scheduler_ptr_->AcquireProducerLock()
                              : std::unique_lock<std::mutex>();
  }

  void PublishBatch(bool is_write, uint64_t pages, bool completed,
                    uint64_t wall_ns);
  void PublishSync(uint64_t wall_ns);

  FileDeviceOptions options_;
  Status status_;
  int fd_ = -1;
  bool direct_io_effective_ = false;
  size_t frame_size_ = 0;
  size_t num_pages_ = 0;

  // Owned when options_.shared_scheduler is null; scheduler_ptr_ is the
  // effective scheduler either way (every transfer goes through it).
  std::unique_ptr<IoScheduler> scheduler_;
  IoScheduler* scheduler_ptr_ = nullptr;
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
