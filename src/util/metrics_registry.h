#ifndef ODBGC_UTIL_METRICS_REGISTRY_H_
#define ODBGC_UTIL_METRICS_REGISTRY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>


namespace odbgc {

/// Which phase of the run a measurement is attributed to. Mirrors the
/// paper's split between "Application I/Os" and "Collector I/Os" (Table 2)
/// and applies to every counter in the registry.
enum class MetricPhase : uint8_t { kApplication = 0, kCollector = 1 };

inline constexpr size_t kMetricPhaseCount = 2;

/// One named counter with per-phase attribution. Counters live inside a
/// MetricsRegistry; components hold a stable `MetricCounter*` handle
/// obtained at construction, so hot-path increments are a single add.
class MetricCounter {
 public:
  void Add(MetricPhase phase, uint64_t delta = 1) {
    values_[static_cast<size_t>(phase)] += delta;
  }
  uint64_t value(MetricPhase phase) const {
    return values_[static_cast<size_t>(phase)];
  }
  uint64_t total() const {
    return values_[0] + values_[1];
  }
  void Reset() { values_[0] = values_[1] = 0; }

 private:
  uint64_t values_[kMetricPhaseCount] = {0, 0};
};

/// One row of a registry snapshot.
struct MetricSample {
  std::string name;
  uint64_t application = 0;
  uint64_t collector = 0;
  uint64_t total() const { return application + collector; }
};

/// Merges per-thread snapshot deltas into one sorted sample vector,
/// summing per-phase values by counter name. Deterministic regardless of
/// the order the parts arrive in (addition over a name-sorted map), which
/// is what lets the concurrent simulator aggregate shard registries
/// without caring which worker finished first.
std::vector<MetricSample> MergeMetricSamples(
    const std::vector<std::vector<MetricSample>>& parts);

/// The unified measurement surface of the I/O subsystem: every component
/// (device, buffer pool, heap) registers named counters here instead of
/// keeping private stat structs, so one object carries the complete
/// instrumentation of a run — into SimulationResult and out to the
/// report.
///
/// The registry also owns the *current phase*: a transfer is charged to
/// whichever phase was active when it happened, regardless of which
/// component issued it (a dirty write-back during collection is collector
/// I/O even though the page was dirtied by the application).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter named `name`, creating it (zeroed) on first use.
  /// The pointer is stable for the registry's lifetime.
  MetricCounter* Register(const std::string& name);

  /// Returns the counter named `name`, or nullptr if never registered.
  const MetricCounter* Find(const std::string& name) const;

  void set_phase(MetricPhase phase) { phase_ = phase; }
  MetricPhase phase() const { return phase_; }

  /// Shorthand: bump `counter` by `delta` under the current phase.
  void Count(MetricCounter* counter, uint64_t delta = 1) {
    counter->Add(phase_, delta);
  }

  /// Zeroes every counter (names and handles survive).
  void ResetCounters();

  /// All counters, sorted by name.
  std::vector<MetricSample> Snapshot() const;

  size_t size() const { return counters_.size(); }

 private:
  // std::map: node-based (stable MetricCounter addresses across inserts)
  // and sorted (deterministic Snapshot order).
  std::map<std::string, MetricCounter> counters_;
  MetricPhase phase_ = MetricPhase::kApplication;
};

}  // namespace odbgc

#endif  // ODBGC_UTIL_METRICS_REGISTRY_H_
