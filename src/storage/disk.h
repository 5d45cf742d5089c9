#ifndef ODBGC_STORAGE_DISK_H_
#define ODBGC_STORAGE_DISK_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "storage/page_device.h"
#include "util/status.h"

namespace odbgc {

/// A simple magnetic-disk timing model — the "more detailed cost model"
/// the paper's Section 4.2 suggests ("actual disk costs in terms of head
/// seek, rotational delay, and transfer times"). Defaults approximate an
/// early-90s SCSI disk (the paper's DECstation era): ~16 ms average seek,
/// 3600 RPM (8.3 ms half-rotation), ~4 MB/s media rate.
struct DiskCostParams {
  double seek_ms = 16.0;
  double rotational_ms = 8.3;
  double transfer_ms_per_page = 2.1;  // 8 KB page at ~4 MB/s.
};

/// Estimated device time for the recorded transfers: sequential transfers
/// pay only the media rate; random ones add a seek and half a rotation.
double EstimateDiskTimeMs(const DiskStats& stats,
                          const DiskCostParams& params = DiskCostParams{});

/// The paper's secondary-memory model: a magnetic disk whose random
/// transfers pay a seek plus half a rotation and whose sequential
/// transfers pay only the media rate. The default PageDevice backend.
class SimulatedDisk : public PageDevice {
 public:
  /// Creates an empty disk with the given page size in bytes (> 0).
  /// `registry` may be nullptr (the device then owns a private one).
  explicit SimulatedDisk(size_t page_size = kDefaultPageSize,
                         MetricsRegistry* registry = nullptr,
                         const DiskCostParams& cost = DiskCostParams{});

  DeviceKind kind() const override { return DeviceKind::kSimulatedDisk; }

  PageExtent AllocatePages(size_t count) override;
  Status ReadPage(PageId page, std::span<std::byte> out) override;
  Status WritePage(PageId page, std::span<const std::byte> in) override;
  size_t num_pages() const override { return pages_.size(); }

  double EstimateTimeMs() const override {
    return EstimateDiskTimeMs(stats(), cost_);
  }
  const DiskCostParams& cost_params() const { return cost_; }

 private:
  const DiskCostParams cost_;
  // One buffer per page. unique_ptr keeps page addresses stable across
  // growth and avoids a multi-megabyte relocation on each new partition.
  std::vector<std::unique_ptr<std::byte[]>> pages_;
};

}  // namespace odbgc

#endif  // ODBGC_STORAGE_DISK_H_
