#ifndef ODBGC_OBSERVE_OBSERVER_H_
#define ODBGC_OBSERVE_OBSERVER_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "odb/object_id.h"

namespace odbgc {

/// Typed run-telemetry events. Every layer of the stack publishes into one
/// SimObserver sink per run: the simulator (run lifecycle), the heap
/// (collections, phase timing) and the device (batches, syncs,
/// read-ahead). Payload fields other than wall_ns are pure functions of
/// the simulated run, so for a fixed (config, seed) the event sequence a
/// run publishes is deterministic — independent of thread count and
/// machine.

/// A run began: identity is the registry policy name plus the seed.
struct RunStartedEvent {
  std::string policy;
  uint64_t seed = 0;
  /// Shard or tenant index + 1 in a sharded run or service fleet
  /// (stamped by SynchronizedObserver); 0 in a standalone run.
  uint32_t thread = 0;
};

/// A run finished (Simulator::Finish): headline results; the full record
/// is the run manifest.
struct RunFinishedEvent {
  std::string policy;
  uint64_t seed = 0;
  uint64_t app_events = 0;
  uint64_t app_io = 0;
  uint64_t gc_io = 0;
  uint64_t garbage_reclaimed_bytes = 0;
  /// Shard or tenant index + 1 in a sharded run or service fleet
  /// (stamped by SynchronizedObserver); 0 in a standalone run.
  uint32_t thread = 0;
};

/// One partition collection completed.
struct CollectionEvent {
  /// Ordinal within the current measurement window (1-based; equals
  /// HeapStats::collections after the collection).
  uint64_t ordinal = 0;
  PartitionId victim = 0;
  PartitionId copy_target = 0;
  uint64_t garbage_reclaimed_bytes = 0;
  uint64_t live_bytes_copied = 0;
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  /// Shard or tenant index + 1 in a sharded run or service fleet
  /// (stamped by SynchronizedObserver); 0 in a standalone run.
  uint32_t thread = 0;
};

/// A real-I/O device started or finished a multi-page batch. Published
/// twice per batch (submitted, then completed); `wall_ns` is meaningful
/// only on completion. Only backends doing actual system calls publish
/// these (FileDevice); the batch *sequence* is deterministic, the wall
/// time is not.
struct DeviceBatchEvent {
  bool is_write = false;
  bool completed = false;
  /// Pages in the batch.
  uint64_t pages = 0;
  /// 1-based batch count on this device.
  uint64_t ordinal = 0;
  /// Submit-to-drain wall time (completion events only).
  uint64_t wall_ns = 0;
  /// Shard or tenant index + 1 in a sharded run or service fleet
  /// (stamped by SynchronizedObserver); 0 in a standalone run.
  uint32_t thread = 0;
};

/// A real-I/O device ran a durability barrier (fsync).
struct DeviceSyncEvent {
  /// 1-based fsync count on this device.
  uint64_t ordinal = 0;
  uint64_t wall_ns = 0;
  /// Shard or tenant index + 1 in a sharded run or service fleet
  /// (stamped by SynchronizedObserver); 0 in a standalone run.
  uint32_t thread = 0;
};

/// A read-ahead prefetch completed. Cumulative hit/miss counters ride
/// along so a sink can chart cache effectiveness without subscribing to
/// per-read events.
struct ReadAheadEvent {
  /// Pages requested by this prefetch (after residency filtering).
  uint64_t requested_pages = 0;
  /// Pages actually staged into the cache by this prefetch.
  uint64_t installed_pages = 0;
  /// Cumulative ReadPage outcomes against the cache so far.
  uint64_t total_hits = 0;
  uint64_t total_misses = 0;
  /// Shard or tenant index + 1 in a sharded run or service fleet
  /// (stamped by SynchronizedObserver); 0 in a standalone run.
  uint32_t thread = 0;
};

/// A measured phase completed. `wall_ns` is host wall-clock time — the
/// only nondeterministic payload in the event stream (the phase *sequence*
/// is still deterministic).
struct PhaseEvent {
  /// Static phase name ("census", "collection", "full_collection").
  const char* phase = "";
  uint64_t wall_ns = 0;
  /// Shard or tenant index + 1 in a sharded run or service fleet
  /// (stamped by SynchronizedObserver); 0 in a standalone run.
  uint32_t thread = 0;
};

/// Sink interface for run telemetry. The default implementation of every
/// hook is a no-op, and publishers hold a nullable pointer — an unobserved
/// run costs one predictable branch per publish site, nothing more.
///
/// Threading: one observer instance observes one run. The experiment
/// runner builds one per (policy, seed) via ExperimentSpec::WithObserver,
/// so implementations need no internal locking unless shared explicitly.
class SimObserver {
 public:
  virtual ~SimObserver() = default;

  virtual void OnRunStarted(const RunStartedEvent& event) { (void)event; }
  virtual void OnRunFinished(const RunFinishedEvent& event) { (void)event; }
  virtual void OnCollection(const CollectionEvent& event) { (void)event; }
  virtual void OnPhase(const PhaseEvent& event) { (void)event; }
  virtual void OnDeviceBatch(const DeviceBatchEvent& event) { (void)event; }
  virtual void OnDeviceSync(const DeviceSyncEvent& event) { (void)event; }
  virtual void OnReadAhead(const ReadAheadEvent& event) { (void)event; }
};

/// Adapter that lets one user observer watch a multi-threaded run: each
/// shard or tenant heap publishes through its own SynchronizedObserver,
/// which stamps the event's `thread` tag with that heap's index + 1 and
/// serializes delivery to the shared inner sink under a shared mutex. The
/// inner observer therefore keeps the single-threaded contract (one event
/// at a time) while still seeing every heap's stream, attributably — the
/// tag names the heap, not the worker thread that happened to run it.
class SynchronizedObserver : public SimObserver {
 public:
  /// `inner` and `mutex` are shared across the run's wrappers and must
  /// outlive them; `thread` is the tag this wrapper stamps (the shard or
  /// tenant index + 1, so 0 stays "standalone").
  SynchronizedObserver(SimObserver* inner, std::mutex* mutex, uint32_t thread)
      : inner_(inner), mutex_(mutex), thread_(thread) {}

  void OnRunStarted(const RunStartedEvent& event) override {
    Publish(event, &SimObserver::OnRunStarted);
  }
  void OnRunFinished(const RunFinishedEvent& event) override {
    Publish(event, &SimObserver::OnRunFinished);
  }
  void OnCollection(const CollectionEvent& event) override {
    Publish(event, &SimObserver::OnCollection);
  }
  void OnPhase(const PhaseEvent& event) override {
    Publish(event, &SimObserver::OnPhase);
  }
  void OnDeviceBatch(const DeviceBatchEvent& event) override {
    Publish(event, &SimObserver::OnDeviceBatch);
  }
  void OnDeviceSync(const DeviceSyncEvent& event) override {
    Publish(event, &SimObserver::OnDeviceSync);
  }
  void OnReadAhead(const ReadAheadEvent& event) override {
    Publish(event, &SimObserver::OnReadAhead);
  }

 private:
  template <typename Event>
  void Publish(const Event& event, void (SimObserver::*hook)(const Event&)) {
    Event tagged = event;
    tagged.thread = thread_;
    std::lock_guard<std::mutex> lock(*mutex_);
    (inner_->*hook)(tagged);
  }

  SimObserver* const inner_;
  std::mutex* const mutex_;
  const uint32_t thread_;
};

}  // namespace odbgc

#endif  // ODBGC_OBSERVE_OBSERVER_H_
