#ifndef ODBGC_SIM_SIMULATOR_H_
#define ODBGC_SIM_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/heap.h"
#include "sim/config.h"
#include "sim/metrics.h"
#include "trace/event.h"
#include "util/status.h"

namespace odbgc {

/// Replays a stream of trace events against a CollectedHeap and measures
/// the outcome — the trace-driven simulation at the heart of the paper's
/// method. The simulator is a TraceSink, so events can come live from a
/// WorkloadGenerator or from a TraceReader over a captured file.
///
/// Time advances one unit per application event; collector-internal work
/// does not advance time (paper, Section 6.3).
class Simulator : public TraceSink {
 public:
  explicit Simulator(const SimulationConfig& config);

  /// Applies one application event. Logical ids in the trace are mapped to
  /// store ObjectIds on first sight (at their Alloc); see TraceEvent for
  /// which ids take the dense table and which the hash map.
  Status Append(const TraceEvent& event) override;

  /// Convenience: generates the configured workload (seeded from the
  /// config) and replays it.
  Status Run();

  /// Finalizes measurements (runs the end-of-run census) and returns the
  /// result. Call once, after the events have been applied.
  SimulationResult Finish();

  CollectedHeap& heap() { return *heap_; }
  const CollectedHeap& heap() const { return *heap_; }
  uint64_t events_applied() const { return events_; }

  /// The warm-start measurement reset Run() performs after the build
  /// phase, exposed so a caller stepping the generator itself (the heap
  /// service) can reproduce Run()'s behaviour exactly.
  void ResetMeasurementForWarmStart();

 private:
  void MaybeSnapshot();

  // The store id of logical id `logical`: null for 0, NotFound if no
  // Alloc introduced it.
  Result<ObjectId> Resolve(uint64_t logical) const;

  // Runs a census into census_scratch_ and refreshes the cache fields.
  void RunCensus();

  SimulationConfig config_;
  std::unique_ptr<CollectedHeap> heap_;
  // Logical id -> store id. dense_ids_[i] holds logical id i + 1: an Alloc
  // whose id is the next in sequence (1, 2, 3, ..., as the generators issue
  // them) is appended there. Any other id, and only such an id, goes to
  // sparse_ids_. No id is in both.
  std::vector<ObjectId> dense_ids_;
  std::unordered_map<uint64_t, ObjectId> sparse_ids_;
  uint64_t events_ = 0;
  uint64_t next_snapshot_ = 0;
  TimeSeries unreclaimed_garbage_kb_{"unreclaimed_garbage_kb"};
  TimeSeries database_size_kb_{"database_size_kb"};

  // Census machinery reused across snapshots, plus a cache so Finish()
  // skips the duplicate census when a snapshot census already ran at the
  // current event count. The census is a pure function of store state.
  // The cache records the heap counters it was computed under and is
  // discarded if any of them moved (e.g. a caller collecting or mutating
  // the heap directly between events).
  ReachabilityAnalyzer census_engine_;
  GarbageCensus census_scratch_;
  bool census_cache_valid_ = false;
  uint64_t census_cache_events_ = 0;
  uint64_t census_cache_heap_fingerprint_ = 0;
  uint64_t cached_garbage_bytes_ = 0;
  uint64_t cached_live_bytes_ = 0;

  // Cheap summary of every heap counter that can move when the object
  // graph changes; used to guard the census cache.
  uint64_t HeapFingerprint() const;
};

}  // namespace odbgc

#endif  // ODBGC_SIM_SIMULATOR_H_
