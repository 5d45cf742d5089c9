#ifndef ODBGC_SIM_CONFIG_H_
#define ODBGC_SIM_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/heap.h"
#include "util/status.h"
#include "workload/workload_config.h"

namespace odbgc {

/// One simulation run: a heap configuration, a workload, and a seed.
/// Replaying the same (workload, seed) against heaps that differ only in
/// policy is the paper's controlled comparison.
struct SimulationConfig {
  HeapOptions heap;
  WorkloadConfig workload;
  /// Seeds the workload generator and the policy's randomness.
  uint64_t seed = 1;
  /// Application events between time-series samples; 0 disables sampling.
  uint64_t snapshot_interval = 0;
  /// If sampling, also run a garbage census per sample (Figure 4's
  /// unreclaimed-garbage curve). Costless in simulated I/O.
  bool census_at_snapshots = true;
  /// Warm start (paper, Section 5): build the initial database, then
  /// reset all measurements (keeping the buffer contents warm) so the
  /// reported numbers cover only the mutation phase. The paper ran cold
  /// starts and argued the choice only lessens policy differentiation —
  /// the warm_start ablation checks that claim.
  bool warm_start = false;
  /// Concurrency (DESIGN.md §14): worker threads replaying the run's
  /// workload shards, each against its own heap. 1 (the default) is plain
  /// serial simulation through Simulator; >1 routes through
  /// ConcurrentSimulator, which runs the shards as a HeapService fleet.
  /// Must not exceed the shard count (a thread with no shard to own is a
  /// configuration error, rejected at Run). An experiment axis: recorded
  /// in manifests but excluded from the config digest, because the
  /// aggregate result is thread-count-invariant (the equivalence suite
  /// enforces this).
  uint32_t mutator_threads = 1;
  /// Number of deterministic workload shards a concurrent run splits the
  /// allocation volume across (each shard is an independently seeded
  /// generator stream — the determinism unit, fixed while
  /// mutator_threads varies). 0 (the default) means one shard per
  /// mutator thread. Ignored in serial runs.
  uint32_t trace_shards = 0;
  /// Optional per-shard workload weights: shard i receives a slice of the
  /// total allocation volume proportional to shard_weights[i] (floor-of-
  /// cumulative-sums split, so slices always telescope to the exact
  /// total). Empty (the default) keeps the equal split. Size must equal
  /// the shard count and weights must be positive (validated at Run).
  /// A bench/test knob for skewed-load scheduling experiments —
  /// deliberately not part of manifests.
  std::vector<double> shard_weights;
};

/// Rejects a configuration no run can execute: a zero-page partition or
/// buffer (`heap.store.pages_per_partition`, `heap.buffer_pages`), a
/// policy name or device spec missing from its registry, or a workload
/// that fails WorkloadConfig::Validate. InvalidArgument naming the field.
/// RunExperiment checks it before building any heap and Simulator::Run
/// before replaying; the heap service checks each tenant's config.
Status Validate(const SimulationConfig& config);

/// The paper's base configuration (Tables 2-4): 48-page partitions and
/// buffer, ~5 MB live / ~11 MB allocated, trigger = 200 overwrites,
/// connectivity ~1.08.
SimulationConfig PaperBaseConfig();

/// The Figure 6 scaling rule: a configuration whose workload allocates
/// `total_alloc_bytes` in total, with partition and buffer size scaled
/// between 24 and 100 pages across the paper's 4..40 MB range.
SimulationConfig ScaledConfig(uint64_t total_alloc_bytes);

}  // namespace odbgc

#endif  // ODBGC_SIM_CONFIG_H_
