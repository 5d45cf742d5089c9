#ifndef ODBGC_UTIL_PHASE_TIMER_H_
#define ODBGC_UTIL_PHASE_TIMER_H_

#include <chrono>

#include "util/metrics_registry.h"

namespace odbgc {

/// Wall-clock phase instrumentation for the simulator's own hot paths.
///
/// These timers measure *real* elapsed time — how long the simulator takes
/// to run, not how long the simulated disk would have taken. They must
/// therefore never feed the heap's main MetricsRegistry: that registry is
/// part of SimulationResult, which is bit-identical across runs, machines
/// and thread counts. Wall-clock counters live in a *separate* registry
/// (CollectedHeap::wall_metrics()) that is excluded from results and
/// consumed only by the profiling harness (bench/hotpath.cc) and by
/// humans.
///
/// Counter convention: names prefixed "wall." with a "_ns" suffix,
/// accumulated in nanoseconds under MetricPhase::kApplication (the
/// two-phase split carries no meaning for wall time).
///
/// Cost: one steady_clock read on entry and one on exit (~20-40 ns each).
/// The always-on scopes wrap rare, milliseconds-long phases (census,
/// collection); per-event scopes (trace apply, index maintenance) are
/// created with a null counter unless profiling was requested, which
/// compiles down to two untaken branches.
class ScopedWallTimer {
 public:
  /// Starts timing into `counter`. A null counter disables the scope
  /// entirely — no clock is read.
  explicit ScopedWallTimer(MetricCounter* counter)
      : counter_(counter),
        start_(counter != nullptr ? Clock::now() : Clock::time_point{}) {}

  ScopedWallTimer(const ScopedWallTimer&) = delete;
  ScopedWallTimer& operator=(const ScopedWallTimer&) = delete;

  ~ScopedWallTimer() {
    if (counter_ == nullptr) return;
    const auto elapsed = Clock::now() - start_;
    counter_->Add(
        MetricPhase::kApplication,
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()));
  }

 private:
  using Clock = std::chrono::steady_clock;
  MetricCounter* const counter_;
  const Clock::time_point start_;
};

/// The heap's wall-clock phase counters, registered once at construction
/// so hot-path scopes cost a pointer load, not a map lookup.
struct WallPhaseTimers {
  explicit WallPhaseTimers(MetricsRegistry* registry)
      : census(registry->Register("wall.census_ns")),
        collection(registry->Register("wall.collection_ns")),
        full_collection(registry->Register("wall.full_collection_ns")),
        index_maintenance(registry->Register("wall.index_maintenance_ns")),
        trace_apply(registry->Register("wall.trace_apply_ns")) {}

  MetricCounter* census;
  MetricCounter* collection;
  MetricCounter* full_collection;
  MetricCounter* index_maintenance;
  MetricCounter* trace_apply;
};

}  // namespace odbgc

#endif  // ODBGC_UTIL_PHASE_TIMER_H_
