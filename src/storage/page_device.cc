#include "storage/page_device.h"

#include <string>

namespace odbgc {

const char* DeviceKindName(DeviceKind kind) {
  switch (kind) {
    case DeviceKind::kSimulatedDisk:
      return "disk";
    case DeviceKind::kSsd:
      return "ssd";
    case DeviceKind::kFile:
      return "file";
  }
  return "unknown";
}

namespace {

MetricsRegistry* ResolveRegistry(MetricsRegistry* registry,
                                 std::unique_ptr<MetricsRegistry>* owned) {
  if (registry != nullptr) return registry;
  *owned = std::make_unique<MetricsRegistry>();
  return owned->get();
}

}  // namespace

PageDevice::PageDevice(size_t page_size, MetricsRegistry* registry)
    : page_size_(page_size),
      registry_(ResolveRegistry(registry, &owned_registry_)),
      reads_(registry_->Register("device.page_reads")),
      writes_(registry_->Register("device.page_writes")),
      sequential_(registry_->Register("device.sequential_transfers")),
      random_(registry_->Register("device.random_transfers")) {
  device_counters_ = {reads_, writes_, sequential_, random_};
}

PageDevice::~PageDevice() = default;

Status PageDevice::WritePages(const PageWriteRequest* requests, size_t count,
                              size_t* written) {
  for (size_t i = 0; i < count; ++i) {
    const Status status = WritePage(requests[i].page, requests[i].data);
    if (!status.ok()) {
      if (written != nullptr) *written = i;
      return status;
    }
  }
  if (written != nullptr) *written = count;
  return Status::Ok();
}

DiskStats PageDevice::stats() const {
  DiskStats stats;
  stats.page_reads = reads_->total();
  stats.page_writes = writes_->total();
  stats.sequential_transfers = sequential_->total();
  stats.random_transfers = random_->total();
  return stats;
}

void PageDevice::ResetStats() {
  for (MetricCounter* counter : device_counters_) counter->Reset();
}

MetricCounter* PageDevice::RegisterDeviceCounter(const std::string& name) {
  MetricCounter* counter = registry_->Register(name);
  device_counters_.push_back(counter);
  return counter;
}

void PageDevice::CountRead(PageId page) {
  registry_->Count(reads_);
  NoteAccess(page);
}

void PageDevice::CountWrite(PageId page) {
  registry_->Count(writes_);
  NoteAccess(page);
}

void PageDevice::NoteAccess(PageId page) {
  if (last_accessed_ != kInvalidPageId && page == last_accessed_ + 1) {
    registry_->Count(sequential_);
  } else {
    registry_->Count(random_);
  }
  last_accessed_ = page;
}

}  // namespace odbgc
