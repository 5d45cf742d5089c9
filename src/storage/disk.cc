#include "storage/disk.h"

#include <cassert>
#include <cstring>

namespace odbgc {

SimulatedDisk::SimulatedDisk(size_t page_size, MetricsRegistry* registry,
                             const DiskCostParams& cost)
    : PageDevice(page_size, registry), cost_(cost) {
  assert(page_size > 0);
}

PageExtent SimulatedDisk::AllocatePages(size_t count) {
  PageExtent extent{static_cast<PageId>(pages_.size()), count};
  for (size_t i = 0; i < count; ++i) {
    auto page = std::make_unique<std::byte[]>(page_size());
    std::memset(page.get(), 0, page_size());
    pages_.push_back(std::move(page));
  }
  return extent;
}

Status SimulatedDisk::ReadPage(PageId page, std::span<std::byte> out) {
  if (page >= pages_.size()) {
    return Status::OutOfRange("ReadPage: page " + std::to_string(page) +
                              " beyond disk end " +
                              std::to_string(pages_.size()));
  }
  if (out.size() != page_size()) {
    return Status::InvalidArgument("ReadPage: buffer size mismatch");
  }
  std::memcpy(out.data(), pages_[page].get(), page_size());
  CountRead(page);
  return Status::Ok();
}

Status SimulatedDisk::WritePage(PageId page, std::span<const std::byte> in) {
  if (page >= pages_.size()) {
    return Status::OutOfRange("WritePage: page " + std::to_string(page) +
                              " beyond disk end " +
                              std::to_string(pages_.size()));
  }
  if (in.size() != page_size()) {
    return Status::InvalidArgument("WritePage: buffer size mismatch");
  }
  std::memcpy(pages_[page].get(), in.data(), page_size());
  CountWrite(page);
  return Status::Ok();
}

double EstimateDiskTimeMs(const DiskStats& stats,
                          const DiskCostParams& params) {
  const double random = static_cast<double>(stats.random_transfers);
  const double sequential = static_cast<double>(stats.sequential_transfers);
  return random * (params.seek_ms + params.rotational_ms +
                   params.transfer_ms_per_page) +
         sequential * params.transfer_ms_per_page;
}

}  // namespace odbgc
