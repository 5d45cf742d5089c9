#include "storage/file_device.h"

#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_set>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "observe/observer.h"
#include "util/crc32.h"
#include "util/serde.h"

namespace odbgc {

namespace {

/// Identifies a frame that has been written at least once. A frame of all
/// zeros (ftruncate extension) has magic 0 and reads as an all-zero page;
/// a zero magic on any other frame is Corruption.
constexpr uint32_t kFrameMagic = 0x0DB9CF17u;

/// Header sector layout (fits well inside one 512-byte sector):
///   [0..4)   magic
///   [4..8)   CRC-32 of the payload (page_size bytes)
///   [8..16)  page id
constexpr size_t kHeaderSize = 512;

/// Frames are padded to this multiple so one layout serves both buffered
/// and O_DIRECT files (direct I/O wants block-aligned offsets, sizes and
/// buffers).
constexpr size_t kFrameAlign = 4096;

size_t AlignUp(size_t value, size_t align) {
  return (value + align - 1) / align * align;
}

std::byte* AllocAligned(size_t size) {
  void* ptr = nullptr;
  if (posix_memalign(&ptr, kFrameAlign, size) != 0) return nullptr;
  return static_cast<std::byte*>(ptr);
}

uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

FileDevice::FileDevice(size_t page_size, MetricsRegistry* registry,
                       const FileDeviceOptions& options)
    : PageDevice(page_size, registry),
      options_(options),
      readahead_(page_size, options.readahead_pages) {
  assert(page_size > 0);
  frame_size_ = AlignUp(kHeaderSize + page_size, kFrameAlign);
  if (options_.path.empty()) {
    status_ = Status::InvalidArgument("FileDevice: empty path");
    return;
  }
  int flags = O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC;
#if defined(O_DIRECT)
  if (options_.direct_io) flags |= O_DIRECT;
  fd_ = ::open(options_.path.c_str(), flags, 0644);
  if (fd_ < 0 && options_.direct_io &&
      (errno == EINVAL || errno == ENOTSUP)) {
    // The filesystem refuses O_DIRECT (tmpfs does); fall back to buffered.
    flags &= ~O_DIRECT;
    fd_ = ::open(options_.path.c_str(), flags, 0644);
  } else if (fd_ >= 0 && options_.direct_io) {
    direct_io_effective_ = true;
  }
#else
  fd_ = ::open(options_.path.c_str(), flags, 0644);
#endif
  if (fd_ < 0) {
    status_ = Status::IoError("FileDevice: open(" + options_.path +
                              ") failed: " + std::strerror(errno));
    return;
  }
  scratch_ = AllocAligned(frame_size_);
  if (scratch_ == nullptr) {
    status_ = Status::IoError("FileDevice: frame buffer allocation failed");
    return;
  }
  if (options_.shared_scheduler != nullptr) {
    scheduler_ptr_ = options_.shared_scheduler;
  } else {
    IoSchedulerOptions sched;
    sched.threads = options_.io_threads;
    sched.backend = options_.backend;
    scheduler_ = std::make_unique<IoScheduler>(sched);
    scheduler_ptr_ = scheduler_.get();
  }
}

FileDevice::~FileDevice() {
  // Workers are idle here (every transfer drains before returning), so
  // tearing the scheduler down after the fd closes would also be safe —
  // but close last anyway.
  scheduler_.reset();
  std::free(scratch_);
  if (fd_ >= 0) ::close(fd_);
}

PageExtent FileDevice::AllocatePages(size_t count) {
  PageExtent extent{static_cast<PageId>(num_pages_), count};
  num_pages_ += count;
  if (status_.ok()) {
    // Extend with zeros: zero frames have zero magic and read as all-zero
    // pages, exactly like SimulatedDisk's zero-filled allocations.
    if (::ftruncate(fd_, static_cast<off_t>(num_pages_ * frame_size_)) != 0) {
      status_ = Status::IoError(std::string("FileDevice: ftruncate failed: ") +
                                std::strerror(errno));
    }
  }
  return extent;
}

void FileDevice::EncodeFrame(PageId page, std::span<const std::byte> payload,
                             std::byte* frame) const {
  std::memset(frame, 0, frame_size_);
  const uint32_t magic = kFrameMagic;
  const uint32_t crc = Crc32(payload.data(), payload.size());
  const uint64_t id = page;
  std::memcpy(frame, &magic, sizeof(magic));
  std::memcpy(frame + 4, &crc, sizeof(crc));
  std::memcpy(frame + 8, &id, sizeof(id));
  std::memcpy(frame + kHeaderSize, payload.data(), payload.size());
}

Status FileDevice::DecodeFrame(PageId page, const std::byte* frame,
                               std::span<std::byte> out) const {
  uint32_t magic = 0;
  std::memcpy(&magic, frame, sizeof(magic));
  if (magic == 0) {
    // Never written: ftruncate left the whole frame zero, and it reads as
    // a zero page. Any other byte means a written frame lost its magic (a
    // torn header sector, bit rot). The first byte is zero here, so the
    // frame is all zero exactly when it equals itself shifted by one.
    if (std::memcmp(frame, frame + 1, frame_size_ - 1) != 0) {
      return Status::Corruption("FileDevice: zeroed magic on written page " +
                                std::to_string(page));
    }
    std::memset(out.data(), 0, out.size());
    return Status::Ok();
  }
  if (magic != kFrameMagic) {
    return Status::Corruption("FileDevice: bad frame magic for page " +
                              std::to_string(page));
  }
  uint32_t crc = 0;
  uint64_t id = 0;
  std::memcpy(&crc, frame + 4, sizeof(crc));
  std::memcpy(&id, frame + 8, sizeof(id));
  if (id != page) {
    return Status::Corruption("FileDevice: frame claims page " +
                              std::to_string(id) + ", expected " +
                              std::to_string(page));
  }
  if (Crc32(frame + kHeaderSize, page_size()) != crc) {
    return Status::Corruption("FileDevice: checksum mismatch on page " +
                              std::to_string(page) +
                              " (torn or short write)");
  }
  std::memcpy(out.data(), frame + kHeaderSize, page_size());
  return Status::Ok();
}

Status FileDevice::ValidateTransfer(const char* op, PageId page,
                                    size_t buffer_size, bool is_write) {
  (void)is_write;
  if (!status_.ok()) return status_;
  if (page >= num_pages_) {
    return Status::OutOfRange(std::string(op) + ": page " +
                              std::to_string(page) + " beyond device end " +
                              std::to_string(num_pages_));
  }
  if (buffer_size != page_size()) {
    return Status::InvalidArgument(std::string(op) +
                                   ": buffer size mismatch");
  }
  return Status::Ok();
}

Status FileDevice::PhysicalRead(PageId page, std::span<std::byte> out) {
  const auto start = std::chrono::steady_clock::now();
  auto lock = BatchLock();
  scheduler_ptr_->SubmitRead(fd_, FrameOffset(page), {scratch_, frame_size_});
  const Status status = scheduler_ptr_->Drain();
  lock = {};
  measured_wall_ns_ += static_cast<double>(ElapsedNs(start));
  ++measured_reads_;
  ODBGC_RETURN_IF_ERROR(status);
  return DecodeFrame(page, scratch_, out);
}

Status FileDevice::ReadPage(PageId page, std::span<std::byte> out) {
  ODBGC_RETURN_IF_ERROR(
      ValidateTransfer("ReadPage", page, out.size(), /*is_write=*/false));
  ODBGC_RETURN_IF_ERROR(CheckFault(/*is_write=*/false));
  if (readahead_.capacity() > 0 && readahead_.Lookup(page, out)) {
    // Staged by a prefetch: no physical transfer, but it is still one
    // simulated page read — the cost model must not depend on whether a
    // real cache intercepted the request.
    CountRead(page);
    return Status::Ok();
  }
  ODBGC_RETURN_IF_ERROR(PhysicalRead(page, out));
  CountRead(page);
  return Status::Ok();
}

void FileDevice::ApplyWriteFaultDamage(PageId page,
                                       std::span<const std::byte> in) {
  const FaultPlan* plan = armed_faults();
  if (plan == nullptr || plan->write_fault_style == WriteFaultStyle::kClean ||
      !status_.ok()) {
    return;
  }
  // Reconstruct what an interrupted physical write leaves behind, then
  // persist that damaged frame in one aligned write (O_DIRECT-safe: a raw
  // partial pwrite would need unaligned sizes and buffers). Fault-path I/O
  // is not tracked in measured stats.
  std::byte* old_frame = AllocAligned(frame_size_);
  if (old_frame == nullptr) return;
  struct FrameGuard {
    std::byte* p;
    ~FrameGuard() { std::free(p); }
  } guard{old_frame};
  auto lock = BatchLock();
  scheduler_ptr_->SubmitRead(fd_, FrameOffset(page), {old_frame, frame_size_});
  if (!scheduler_ptr_->Drain().ok()) return;
  EncodeFrame(page, in, scratch_);
  if (plan->write_fault_style == WriteFaultStyle::kShortWrite) {
    // Only a prefix made it out: the new header plus half the payload, old
    // bytes beyond — the cut must land inside the payload (not the frame's
    // alignment padding) or nothing is actually lost. The header checksum
    // no longer covers the bytes on disk.
    const size_t cut = kHeaderSize + page_size() / 2;
    std::memcpy(scratch_ + cut, old_frame + cut, frame_size_ - cut);
  } else {
    // Torn page: the header sector (claiming the new contents) landed,
    // but half the payload sectors carry garbage.
    const size_t payload_half = page_size() / 2;
    std::memset(scratch_ + kHeaderSize + payload_half, 0xDB,
                page_size() - payload_half);
  }
  scheduler_ptr_->SubmitWrite(fd_, FrameOffset(page), {scratch_, frame_size_});
  (void)scheduler_ptr_->Drain();
  readahead_.Invalidate(page);
}

Status FileDevice::WritePage(PageId page, std::span<const std::byte> in) {
  ODBGC_RETURN_IF_ERROR(
      ValidateTransfer("WritePage", page, in.size(), /*is_write=*/true));
  const Status fault = CheckFault(/*is_write=*/true);
  if (!fault.ok()) {
    ApplyWriteFaultDamage(page, in);
    return fault;
  }
  EncodeFrame(page, in, scratch_);
  const auto start = std::chrono::steady_clock::now();
  auto lock = BatchLock();
  scheduler_ptr_->SubmitWrite(fd_, FrameOffset(page), {scratch_, frame_size_});
  const Status status = scheduler_ptr_->Drain();
  lock = {};
  measured_wall_ns_ += static_cast<double>(ElapsedNs(start));
  ++measured_writes_;
  ODBGC_RETURN_IF_ERROR(status);
  readahead_.Invalidate(page);
  CountWrite(page);
  return Status::Ok();
}

Status FileDevice::WritePages(const PageWriteRequest* requests, size_t count,
                              size_t* written) {
  if (count == 0) {
    if (written != nullptr) *written = 0;
    return Status::Ok();
  }
  if (count == 1) {
    // No batch to amortize; take the synchronous path (and skip the
    // barrier fsync, matching eviction-style single writes).
    const Status status = WritePage(requests[0].page, requests[0].data);
    if (written != nullptr) *written = status.ok() ? 1 : 0;
    return status;
  }
  // Frame staging area for the whole batch — spans must stay valid until
  // the drain below.
  std::byte* frames = AllocAligned(frame_size_ * count);
  if (frames == nullptr) {
    if (written != nullptr) *written = 0;
    return Status::IoError("FileDevice: batch buffer allocation failed");
  }
  struct FrameGuard {
    std::byte* p;
    ~FrameGuard() { std::free(p); }
  } guard{frames};

  PublishBatch(/*is_write=*/true, count, /*completed=*/false, 0);
  const auto start = std::chrono::steady_clock::now();
  std::unordered_set<PageId> in_flight;
  size_t accepted = 0;
  bool fault_fired = false;
  Status failure = Status::Ok();
  Status drain_status = Status::Ok();
  {
    // Scope ends before any fault-damage write below, which takes its own
    // batch lock.
    auto lock = BatchLock();
    for (size_t i = 0; i < count; ++i) {
      const PageId page = requests[i].page;
      failure = ValidateTransfer("WritePages", page, requests[i].data.size(),
                                 /*is_write=*/true);
      if (failure.ok()) {
        failure = CheckFault(/*is_write=*/true);
        fault_fired = !failure.ok();
      }
      if (!failure.ok()) break;
      if (!in_flight.insert(page).second) {
        // Same page twice in one batch: drain so concurrent jobs never
        // cover overlapping file ranges (the determinism precondition).
        failure = scheduler_ptr_->Drain();
        if (!failure.ok()) break;
        in_flight.clear();
        in_flight.insert(page);
      }
      std::byte* frame = frames + i * frame_size_;
      EncodeFrame(page, requests[i].data, frame);
      scheduler_ptr_->SubmitWrite(fd_, FrameOffset(page), {frame, frame_size_});
      // Simulated accounting happens here — on the calling thread, in
      // request order — identical to the default WritePage loop.
      readahead_.Invalidate(page);
      CountWrite(page);
      ++measured_writes_;
      ++accepted;
    }
    drain_status = scheduler_ptr_->Drain();
  }
  const uint64_t wall = ElapsedNs(start);
  measured_wall_ns_ += static_cast<double>(wall);
  ++measured_batches_;
  PublishBatch(/*is_write=*/true, accepted, /*completed=*/true, wall);
  if (!failure.ok()) {
    // An injected fault stopped the batch after `accepted` pages: the
    // damage write must land after the batch's own writes.
    if (fault_fired && drain_status.ok()) {
      ApplyWriteFaultDamage(requests[accepted].page, requests[accepted].data);
    }
    if (written != nullptr) *written = accepted;
    return failure;
  }
  if (!drain_status.ok()) {
    if (written != nullptr) *written = 0;
    return drain_status;
  }
  if (written != nullptr) *written = count;
  if (options_.sync_on_barrier) return Sync();
  return Status::Ok();
}

void FileDevice::Prefetch(std::span<const PageId> pages) {
  if (!status_.ok() || readahead_.capacity() == 0 || pages.empty()) return;
  // Residency filtering against the buffer pool happened above us; here we
  // drop out-of-range pages and ones already staged.
  std::vector<PageId> wanted;
  wanted.reserve(pages.size());
  for (const PageId page : pages) {
    if (page < num_pages_ && !readahead_.Contains(page)) {
      wanted.push_back(page);
    }
    if (wanted.size() == readahead_.capacity()) break;
  }
  if (wanted.empty()) return;

  std::byte* frames = AllocAligned(frame_size_ * wanted.size());
  if (frames == nullptr) return;
  struct FrameGuard {
    std::byte* p;
    ~FrameGuard() { std::free(p); }
  } guard{frames};

  PublishBatch(/*is_write=*/false, wanted.size(), /*completed=*/false, 0);
  const auto start = std::chrono::steady_clock::now();
  auto lock = BatchLock();
  for (size_t i = 0; i < wanted.size(); ++i) {
    scheduler_ptr_->SubmitRead(fd_, FrameOffset(wanted[i]),
                               {frames + i * frame_size_, frame_size_});
  }
  const Status drain_status = scheduler_ptr_->Drain();
  lock = {};
  const uint64_t wall = ElapsedNs(start);
  measured_wall_ns_ += static_cast<double>(wall);
  measured_reads_ += wanted.size();
  ++measured_batches_;
  PublishBatch(/*is_write=*/false, wanted.size(), /*completed=*/true, wall);

  uint64_t installed = 0;
  if (drain_status.ok()) {
    std::vector<std::byte> payload(page_size());
    for (size_t i = 0; i < wanted.size(); ++i) {
      // A frame that fails to decode is simply not staged — prefetch is
      // advisory, and the eventual ReadPage surfaces the corruption.
      if (DecodeFrame(wanted[i], frames + i * frame_size_,
                      {payload.data(), payload.size()})
              .ok()) {
        readahead_.Install(wanted[i], {payload.data(), payload.size()});
        ++installed;
      }
    }
  }
  prefetched_pages_ += installed;
  if (observer() != nullptr) {
    ReadAheadEvent event;
    event.requested_pages = wanted.size();
    event.installed_pages = installed;
    event.total_hits = readahead_.hits();
    event.total_misses = readahead_.misses();
    observer()->OnReadAhead(event);
  }
}

Status FileDevice::Sync() {
  if (!status_.ok()) return status_;
  const auto start = std::chrono::steady_clock::now();
  const int rc = ::fsync(fd_);
  const uint64_t wall = ElapsedNs(start);
  measured_wall_ns_ += static_cast<double>(wall);
  ++measured_fsyncs_;
  PublishSync(wall);
  if (rc != 0) {
    return Status::IoError(std::string("FileDevice: fsync failed: ") +
                           std::strerror(errno));
  }
  return Status::Ok();
}

void FileDevice::SaveState(std::ostream& out) const {
  PutU8(out, static_cast<uint8_t>(kind()));
  PutVarint(out, page_size());
  PutVarint(out, num_pages_);
  PutU64(out, last_accessed());
}

Status FileDevice::LoadState(std::istream& in) {
  auto stored_kind = GetU8(in);
  ODBGC_RETURN_IF_ERROR(stored_kind.status());
  if (*stored_kind != static_cast<uint8_t>(kind())) {
    return Status::Corruption("device state kind mismatch");
  }
  auto stored_page_size = GetVarint(in);
  ODBGC_RETURN_IF_ERROR(stored_page_size.status());
  auto stored_num_pages = GetVarint(in);
  ODBGC_RETURN_IF_ERROR(stored_num_pages.status());
  if (*stored_page_size != page_size() || *stored_num_pages != num_pages_) {
    return Status::Corruption("file device state geometry mismatch");
  }
  auto last = GetU64(in);
  ODBGC_RETURN_IF_ERROR(last.status());
  set_last_accessed(*last);
  // Anything staged before the checkpoint refers to pre-restore contents.
  readahead_.Clear();
  return Status::Ok();
}

MeasuredIoStats FileDevice::MeasuredStats() const {
  MeasuredIoStats stats;
  stats.measured = true;
  stats.reads = measured_reads_;
  stats.writes = measured_writes_;
  stats.fsyncs = measured_fsyncs_;
  stats.batches = measured_batches_;
  stats.readahead_hits = readahead_.hits();
  stats.readahead_misses = readahead_.misses();
  stats.prefetched_pages = prefetched_pages_;
  stats.wall_ms = measured_wall_ns_ / 1e6;
  return stats;
}

void FileDevice::PublishBatch(bool is_write, uint64_t pages, bool completed,
                              uint64_t wall_ns) {
  if (observer() == nullptr) return;
  DeviceBatchEvent event;
  event.is_write = is_write;
  event.completed = completed;
  event.pages = pages;
  event.ordinal = measured_batches_ + (completed ? 0 : 1);
  event.wall_ns = wall_ns;
  observer()->OnDeviceBatch(event);
}

void FileDevice::PublishSync(uint64_t wall_ns) {
  if (observer() == nullptr) return;
  DeviceSyncEvent event;
  event.ordinal = measured_fsyncs_;
  event.wall_ns = wall_ns;
  observer()->OnDeviceSync(event);
}

}  // namespace odbgc
