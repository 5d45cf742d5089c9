#include "sim/config.h"

#include <algorithm>

#include "storage/device_registry.h"

namespace odbgc {

Status Validate(const SimulationConfig& config) {
  const HeapOptions& heap = config.heap;
  if (heap.store.pages_per_partition == 0) {
    return Status::InvalidArgument(
        "heap.store.pages_per_partition must be >= 1");
  }
  if (heap.buffer_pages == 0) {
    return Status::InvalidArgument("heap.buffer_pages must be >= 1");
  }
  if (heap.policy_name.empty()) {
    return Status::InvalidArgument("heap.policy_name must not be empty");
  }
  if (!IsPolicyRegistered(heap.policy_name)) {
    return Status::InvalidArgument("unknown policy name: " +
                                   heap.policy_name);
  }
  if (!IsDeviceRegistered(heap.device_spec)) {
    return Status::InvalidArgument("unknown device spec: " +
                                   heap.device_spec);
  }
  return config.workload.Validate();
}

SimulationConfig PaperBaseConfig() {
  SimulationConfig config;
  config.heap.store.page_size = kDefaultPageSize;
  config.heap.store.pages_per_partition = 48;
  config.heap.buffer_pages = 48;
  config.heap.overwrite_trigger = 150;
  // WorkloadConfig defaults are already the Section 5 base database.
  return config;
}

SimulationConfig ScaledConfig(uint64_t total_alloc_bytes) {
  SimulationConfig config = PaperBaseConfig();
  config.workload = config.workload.WithTotalAllocation(total_alloc_bytes);

  // Partition size scales 24 -> 100 pages as the run scales 4 -> 40 MB of
  // total allocation, clamped at the ends (paper, Sections 4.1 and 6.4).
  const double mb = static_cast<double>(total_alloc_bytes) / (1 << 20);
  const double t = std::clamp((mb - 4.0) / (40.0 - 4.0), 0.0, 1.0);
  const size_t pages = static_cast<size_t>(24.0 + t * (100.0 - 24.0) + 0.5);
  config.heap.store.pages_per_partition = pages;
  config.heap.buffer_pages = pages;  // Buffer = one partition, as in the paper.
  return config;
}

}  // namespace odbgc
