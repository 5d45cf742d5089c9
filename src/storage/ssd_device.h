#ifndef ODBGC_STORAGE_SSD_DEVICE_H_
#define ODBGC_STORAGE_SSD_DEVICE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "storage/page_device.h"
#include "util/status.h"

namespace odbgc {

/// Flash timing/geometry model. Defaults approximate a SATA-era MLC SSD:
/// ~60 us page read, ~600 us page program, ~2.5 ms block erase. The
/// asymmetry is the point — on flash, writes (and the erase-block GC they
/// force) dominate, so policies that trade writes for reads rank
/// differently than on the paper's seek-dominated disk.
struct SsdCostParams {
  size_t pages_per_block = 64;
  /// Physical blocks beyond the logical capacity (overprovisioning).
  /// Clamped to >= 2: one open block plus one erased block keeps the
  /// FTL's garbage collection always able to make progress.
  size_t spare_blocks = 2;
  double read_ms_per_page = 0.06;
  double program_ms_per_page = 0.6;
  double erase_ms_per_block = 2.5;
};

/// An SSD-style PageDevice: logical page contents plus a simplified
/// flash-translation layer that accounts for erase-block garbage
/// collection.
///
/// Flash cannot overwrite in place: every logical write programs a fresh
/// flash page (appending into the open block) and leaves the previous
/// version stale. When writable flash runs low, the FTL collects the
/// closed block with the fewest valid pages — copying its valid pages to
/// the open block (write amplification, counted as `ssd.gc_page_copies`)
/// and erasing it (`ssd.erases`). EstimateTimeMs charges reads, host
/// programs, GC copies and erases under SsdCostParams, so the same
/// transfer trace costs very differently here than on SimulatedDisk.
///
/// The FTL is deterministic (greedy min-valid victim, lowest index wins
/// ties; FIFO reuse of erased blocks), so runs are reproducible.
class SsdDevice : public PageDevice {
 public:
  explicit SsdDevice(size_t page_size = kDefaultPageSize,
                     MetricsRegistry* registry = nullptr,
                     const SsdCostParams& cost = SsdCostParams{});

  DeviceKind kind() const override { return DeviceKind::kSsd; }

  PageExtent AllocatePages(size_t count) override;
  Status ReadPage(PageId page, std::span<std::byte> out) override;
  Status WritePage(PageId page, std::span<const std::byte> in) override;
  size_t num_pages() const override { return pages_.size(); }

  double EstimateTimeMs() const override;
  const SsdCostParams& cost_params() const { return cost_; }

  // FTL introspection (tests and benches).
  size_t flash_blocks() const { return block_state_.size(); }
  uint64_t erases() const { return erases_->total(); }
  uint64_t gc_page_copies() const { return gc_copies_->total(); }
  /// Total flash programs (host writes + GC copies) per host write; the
  /// classic write-amplification factor. 0 before any write.
  double WriteAmplification() const;

 private:
  static constexpr uint64_t kUnmapped = UINT64_MAX;
  static constexpr uint32_t kNoBlock = UINT32_MAX;
  enum BlockState : uint8_t { kErased = 0, kOpen = 1, kClosed = 2 };

  // Grows flash so every logical page plus the spare blocks fit.
  void GrowFlash();

  // Writable flash pages: erased blocks plus the open block's remainder.
  uint64_t WritableSlots() const;

  // Unmaps `logical`'s current flash page, if any.
  void Invalidate(PageId logical);

  // Appends `logical` into the open block (rolling to the next erased
  // block when full). Requires WritableSlots() > 0.
  void Program(PageId logical);

  // GC until a block's worth of headroom is writable (or no collectable
  // block remains).
  void EnsureSpace();

  // Collects the closed block with the fewest valid pages. False if no
  // closed block exists or collection cannot free anything.
  bool CollectOneBlock();

  const SsdCostParams cost_;
  MetricCounter* const erases_;
  MetricCounter* const gc_copies_;

  // Logical page contents (what ReadPage returns).
  std::vector<std::unique_ptr<std::byte[]>> pages_;

  // FTL state. Flash page f lives in block f / pages_per_block.
  std::vector<uint64_t> map_;         // logical -> flash page (kUnmapped).
  std::vector<uint64_t> owner_;       // flash page -> logical (kUnmapped).
  std::vector<uint8_t> block_state_;  // BlockState per flash block.
  std::vector<uint32_t> block_valid_; // Valid pages per flash block.
  std::deque<uint32_t> erased_fifo_;  // Erased blocks, reuse order.
  uint32_t open_block_ = kNoBlock;
  uint32_t open_offset_ = 0;
};

}  // namespace odbgc

#endif  // ODBGC_STORAGE_SSD_DEVICE_H_
