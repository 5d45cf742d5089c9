#ifndef ODBGC_SIM_METRICS_H_
#define ODBGC_SIM_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "core/heap.h"
#include "core/selection_policy.h"
#include "storage/disk.h"
#include "storage/page_device.h"
#include "util/metrics_registry.h"
#include "util/time_series.h"

namespace odbgc {

/// Everything measured in one simulation run — the raw material for every
/// table and figure in the paper's Section 6.
struct SimulationResult {
  /// Behaviour class of the policy the run used; `policy_name` is the
  /// identity (distinct extension policies share a kind).
  PolicyKind policy = PolicyKind::kUpdatedPointer;
  /// Registry name of the policy the run used (SelectionPolicy::name()).
  std::string policy_name;
  uint64_t seed = 0;

  /// Kind of the storage backend the run used.
  DeviceKind device = DeviceKind::kSimulatedDisk;

  /// Application events replayed (the paper's time axis).
  uint64_t app_events = 0;

  /// Page I/O split (Table 2).
  uint64_t app_io = 0;
  uint64_t gc_io = 0;
  uint64_t total_io() const { return app_io + gc_io; }

  /// Space (Table 3): high-water footprint, in bytes, and partition counts.
  uint64_t max_storage_bytes = 0;
  uint64_t max_partitions = 0;
  uint64_t final_partitions = 0;

  /// Collection effectiveness (Table 4).
  uint64_t collections = 0;
  uint64_t garbage_reclaimed_bytes = 0;
  uint64_t live_bytes_copied = 0;
  /// Garbage never reclaimed, from the end-of-run census.
  uint64_t unreclaimed_garbage_bytes = 0;
  /// Everything that became garbage over the run (reclaimed + remaining).
  uint64_t actual_garbage_bytes() const {
    return garbage_reclaimed_bytes + unreclaimed_garbage_bytes;
  }
  /// Fraction of actual garbage reclaimed, in percent.
  double FractionReclaimedPct() const {
    const uint64_t actual = actual_garbage_bytes();
    return actual == 0 ? 0.0
                       : 100.0 * static_cast<double>(garbage_reclaimed_bytes) /
                             static_cast<double>(actual);
  }
  /// Collector efficiency: KB of garbage reclaimed per collector page I/O.
  double EfficiencyKbPerIo() const {
    return gc_io == 0 ? 0.0
                      : static_cast<double>(garbage_reclaimed_bytes) / 1024.0 /
                            static_cast<double>(gc_io);
  }

  /// Final live data (census).
  uint64_t final_live_bytes = 0;

  /// Inter-partition pointer entries at end of run — the space cost of
  /// the remembered sets the paper counts against partitioned collection.
  uint64_t remset_entries = 0;

  /// Workload totals (identical across policies for the same seed).
  uint64_t bytes_allocated = 0;
  uint64_t pointer_overwrites = 0;

  /// Time series (only if snapshot_interval > 0): x = application events,
  /// y = kilobytes.
  TimeSeries unreclaimed_garbage_kb;
  TimeSeries database_size_kb;

  /// Estimated wall time of all device transfers under the backend's own
  /// cost model (seek/rotation/transfer for the disk; read/program/erase
  /// for the SSD) — the "more detailed cost model" of Section 4.2.
  double estimated_device_time_ms = 0.0;

  /// Measured (real wall-clock) I/O activity, for backends that perform
  /// actual system calls ("file"); `measured.measured` is false and every
  /// field zero for in-memory backends. Deliberately OUTSIDE the
  /// deterministic result surface: equivalence tests compare everything
  /// except this field, and manifests carry it in a separate top-level
  /// section excluded from the config digest.
  MeasuredIoStats measured;

  /// Full component stats for deeper inspection.
  HeapStats heap_stats;
  BufferStats buffer_stats;
  DiskStats disk_stats;

  /// Every named counter in the run's metrics registry, with per-phase
  /// attribution (sorted by name; includes device-specific counters like
  /// the SSD's erases).
  std::vector<MetricSample> metrics;
};

}  // namespace odbgc

#endif  // ODBGC_SIM_METRICS_H_
