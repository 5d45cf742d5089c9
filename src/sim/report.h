#ifndef ODBGC_SIM_REPORT_H_
#define ODBGC_SIM_REPORT_H_

#include <ostream>
#include <string>
#include <vector>

#include "sim/runner.h"
#include "util/statistics.h"

namespace odbgc {

/// Per-policy aggregates across seeds, in the paper's reporting shape
/// (means and standard deviations; relative metrics are paired per seed
/// against the MostGarbage run of the same seed, the paper's baseline).
struct PolicySummary {
  /// Registry name of the summarized policy (the row label).
  std::string name;
  RunningStat app_io;
  RunningStat gc_io;
  RunningStat total_io;
  RunningStat relative_total_io;  // vs MostGarbage, same seed.
  RunningStat max_storage_kb;
  RunningStat relative_max_storage;  // vs MostGarbage, same seed.
  RunningStat max_partitions;
  RunningStat reclaimed_kb;
  RunningStat fraction_reclaimed_pct;
  RunningStat efficiency_kb_per_io;
  RunningStat relative_efficiency;  // vs MostGarbage, same seed.
  RunningStat collections;
  RunningStat actual_garbage_kb;  // Trace property; same for all policies.
  /// Estimated device time under the backend's cost model (see
  /// SimulationResult::estimated_device_time_ms).
  RunningStat device_time_ms;
  RunningStat relative_device_time;  // vs MostGarbage, same seed.
  /// Measured wall-clock I/O time, for runs on a real-I/O backend
  /// (SimulationResult::measured.wall_ms). Empty when no run measured.
  RunningStat measured_io_ms;
  /// True if any summarized run carried measured I/O.
  bool any_measured = false;
};

/// Builds per-policy summaries from an experiment (preserves set order).
std::vector<PolicySummary> Summarize(const Experiment& experiment);

/// Table 2: throughput as page I/O operations (application, collector,
/// total, and total relative to MostGarbage).
void PrintThroughputTable(const std::vector<PolicySummary>& summaries,
                          std::ostream& os);

/// Table 3: maximum storage space usage and partition counts.
void PrintStorageTable(const std::vector<PolicySummary>& summaries,
                       std::ostream& os);

/// Table 4: collector effectiveness and efficiency, with the
/// "Actual Garbage" reference row.
void PrintEfficiencyTable(const std::vector<PolicySummary>& summaries,
                          std::ostream& os);

/// Estimated device time under the configured backend's cost model
/// (beyond the paper: policies re-ranked by a device's actual economics
/// rather than raw I/O counts).
void PrintDeviceTimeTable(const std::vector<PolicySummary>& summaries,
                          std::ostream& os);

}  // namespace odbgc

#endif  // ODBGC_SIM_REPORT_H_
