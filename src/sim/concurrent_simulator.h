#ifndef ODBGC_SIM_CONCURRENT_SIMULATOR_H_
#define ODBGC_SIM_CONCURRENT_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "sim/config.h"
#include "sim/metrics.h"
#include "util/status.h"

namespace odbgc {

/// The sharded multi-threaded mode (DESIGN.md §14).
///
/// The run's workload is split into `trace_shards` deterministic shards —
/// each an independently seeded generator stream over a proportional
/// slice of the allocation volume, driving its own heap. Shards are the
/// determinism unit: a shard's event stream and heap are a pure function
/// of (config, shard index), never of thread scheduling. Threads are the
/// parallelism unit: Run hosts the shards as the tenants of a HeapService
/// on `mutator_threads` workers, so any worker may run any shard, and a
/// 1-thread run performs the identical shard sequence serially. Hence:
///
///   ConcurrentSimulator(config with N threads).Run+Finish
///     == aggregate of each shard replayed through the serial Simulator
///
/// bitwise, for every field except wall-clock/measured ones. The
/// equivalence suites (tests/sim/concurrent_equivalence_test.cc and
/// tests/sim/skewed_shard_equivalence_test.cc) hold all six paper
/// policies to this at several thread counts.
///
/// Aggregation over shard results is per-field summation (I/O, events,
/// allocation, reclamation, remembered-set entries, estimated device
/// time; max_storage/max_partitions sum the per-shard high-water marks —
/// the footprint bound of the sharded database as a whole). Named metrics
/// merge through MergeMetricSamples. Time series are a per-shard notion
/// and stay empty in the aggregate.
///
/// Not supported (rejected by Run): mutator_threads > shard count.
class ConcurrentSimulator {
 public:
  explicit ConcurrentSimulator(const SimulationConfig& config);

  /// Validates the concurrency configuration, then runs every shard to
  /// completion across the configured worker threads. First shard error
  /// (in shard order) wins.
  Status Run();

  /// Aggregates the per-shard results. Call once, after Run succeeds.
  SimulationResult Finish();

  /// Effective shard count (trace_shards, defaulted to mutator_threads).
  uint32_t shard_count() const;

  /// Per-shard results, in shard order (valid after Run).
  const std::vector<SimulationResult>& shard_results() const {
    return shard_results_;
  }

  /// The configuration of shard `index`: the derived seed and the
  /// workload slice. Exposed so the serial oracle in the equivalence
  /// suite replays exactly the shards a concurrent run executes.
  SimulationConfig ShardConfig(uint32_t index) const;

  /// The seed shard `index` derives from `base_seed` (splitmix over the
  /// pair, so shard streams never overlap the base stream or each other).
  static uint64_t ShardSeed(uint64_t base_seed, uint32_t shard);

  /// Sums `parts` into one result under the aggregation rule above —
  /// shared by Finish, HeapService::Finish and the serial oracle. `parts` must be nonempty;
  /// identity fields (policy, seed, device) come from the first part.
  static SimulationResult AggregateResults(
      const std::vector<SimulationResult>& parts);

 private:
  Status ValidateConcurrency() const;

  SimulationConfig config_;
  bool ran_ = false;
  std::vector<SimulationResult> shard_results_;
};

}  // namespace odbgc

#endif  // ODBGC_SIM_CONCURRENT_SIMULATOR_H_
