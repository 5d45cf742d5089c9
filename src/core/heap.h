#ifndef ODBGC_CORE_HEAP_H_
#define ODBGC_CORE_HEAP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "buffer/buffer_pool.h"
#include "core/copying_collector.h"
#include "core/global_collector.h"
#include "core/reachability.h"
#include "core/remembered_set.h"
#include "core/selection_policy.h"
#include "core/weights.h"
#include "core/write_barrier.h"
#include "observe/observer.h"
#include "odb/object_store.h"
#include "storage/disk.h"
#include "storage/file_device.h"
#include "storage/page_device.h"
#include "storage/ssd_device.h"
#include "util/metrics_registry.h"
#include "util/phase_timer.h"
#include "util/status.h"

namespace odbgc {

/// When to perform collection (Table 1's "when to collect" axis). The
/// paper fixes kPointerOverwrites ("garbage is created by overwrites, so
/// the count correlates with collectable garbage, and the criterion is
/// independent of the partition choice"); the others are the listed
/// alternatives, provided for the ablation benches.
enum class TriggerKind {
  /// Collect after `overwrite_trigger` pointer overwrites (the paper).
  kPointerOverwrites,
  /// Collect after `allocation_trigger_bytes` of new allocation
  /// ("when more space is needed", rate-based form).
  kAllocatedBytes,
  /// Collect whenever the database had to grow by a partition
  /// ("when free space is exhausted").
  kDatabaseGrowth,
};

/// Configuration of a collected heap. Defaults reproduce the paper's base
/// configuration (48-page partitions, buffer = one partition, trigger in
/// the 150-300 overwrite range).
struct HeapOptions {
  /// Page size, partition size, empty-partition reservation.
  StoreOptions store;
  /// I/O buffer capacity in pages. The paper sets it equal to the
  /// partition size.
  size_t buffer_pages = 48;
  /// Physically shared frame arena (non-owning; must outlive the heap).
  /// Null — the default, and every standalone run — gives the heap's pool
  /// an arena of its own holding exactly `buffer_pages` frames. The
  /// multi-tenant service sets it so all tenant pools draw frames from one
  /// arena, with `buffer_pages` as this heap's logical quota; residency
  /// stays in the heap's own pool. See DESIGN.md §17.
  SharedFrameArena* shared_arena = nullptr;
  /// Storage backend by registry spec: "disk" (the default, the paper's
  /// seek/rotation/transfer disk), "ssd", "file:<path>", or any name added
  /// with RegisterDevice. An unknown name aborts — validate untrusted
  /// specs with IsDeviceRegistered at the config boundary. A "file" spec
  /// runs the identical simulated workload against a real partition file:
  /// simulated counters stay bit-identical to the in-memory backends, and
  /// measured wall-clock I/O is reported separately
  /// (PageDevice::MeasuredStats).
  std::string device_spec = "disk";
  /// Timing model for the "disk" backend.
  DiskCostParams disk_cost;
  /// Geometry/timing model for the "ssd" backend.
  SsdCostParams ssd_cost;
  /// Options for the "file" backend (direct I/O, fsync barriers,
  /// read-ahead depth, batch executors; the path may instead come from
  /// the spec argument, which wins).
  FileDeviceOptions file_device;
  /// Partition selection policy, by registry name (see RegisterPolicy):
  /// one of the paper's six, an extension policy or an
  /// application-registered one. After construction it holds the
  /// instantiated policy's name(). The policy's kind() sets the heap's
  /// behaviour: kNoCollection disables the trigger, kMostGarbage runs the
  /// oracle census, kWeightedPointer maintains root-distance weights. An
  /// unregistered name aborts — validate with IsPolicyRegistered at the
  /// config boundary.
  std::string policy_name = "UpdatedPointer";
  /// What causes a collection (see TriggerKind).
  TriggerKind trigger = TriggerKind::kPointerOverwrites;
  /// Collect after this many pointer overwrites; 0 disables the automatic
  /// trigger (collections then happen only via CollectNow). Ignored for
  /// NoCollection and for other TriggerKinds.
  uint32_t overwrite_trigger = 200;
  /// For TriggerKind::kAllocatedBytes: collect after this many bytes of
  /// new allocation. 0 disables.
  uint64_t allocation_trigger_bytes = 0;
  /// Number of partitions collected per activation (the paper collects
  /// one; >1 is the multi-partition ablation).
  uint32_t partitions_per_collection = 1;
  /// Traversal/copy order during collection.
  TraversalOrder traversal = TraversalOrder::kBreadthFirst;
  /// If non-zero, run a whole-database mark-and-copy collection (which
  /// also reclaims cross-partition cyclic garbage — the paper's Section
  /// 6.5 future work) after every this-many partition collections.
  uint32_t full_collection_interval = 0;
  /// How the remembered sets are maintained (exact / store buffer / card
  /// marking). Exact is what the paper assumes.
  BarrierMode barrier = BarrierMode::kExact;
  /// Card granularity for BarrierMode::kCardMarking, in bytes.
  uint32_t card_size = 512;
  /// Seed for policy randomness (Random).
  uint64_t seed = 1;
  /// Enables per-event wall-clock timers (index maintenance, trace apply).
  /// The coarse per-phase timers (census, collection) are always on; the
  /// per-event ones cost two clock reads per pointer store, so they are
  /// opt-in for the profiling harness. Wall timings never affect simulated
  /// results (see wall_metrics()).
  bool profile_hot_paths = false;
  /// Run-telemetry sink (non-owning; must outlive the heap). The heap
  /// publishes collection and phase events, the device its batch and sync
  /// events; the simulator publishes run events through the same pointer.
  /// Null (the default) disables publishing entirely.
  SimObserver* observer = nullptr;
};

/// Aggregate heap statistics.
struct HeapStats {
  uint64_t collections = 0;
  uint64_t full_collections = 0;
  uint64_t pointer_stores = 0;      // Non-null pointer values written.
  uint64_t pointer_overwrites = 0;  // Stores replacing a non-null pointer.
  uint64_t objects_allocated = 0;
  uint64_t bytes_allocated = 0;
  uint64_t garbage_bytes_reclaimed = 0;
  uint64_t garbage_objects_reclaimed = 0;
  uint64_t live_bytes_copied = 0;
  uint64_t live_objects_copied = 0;
  /// High-water mark of the database footprint (all partitions, including
  /// garbage and fragmentation) — the paper's "max storage required".
  uint64_t max_total_bytes = 0;
  /// Partition count at the high-water mark.
  uint64_t max_partitions = 0;
};

/// A garbage-collected partitioned object database: the library's main
/// entry point. Owns the whole stack (simulated disk, buffer pool, object
/// store, inter-partition index, weights, policy, collector) and wires the
/// write barrier:
///
///   WriteSlot -> remembered-set maintenance + policy notification +
///                weight relaxation + overwrite-count trigger.
///
/// When the trigger fires, the heap asks the policy to select a victim
/// and runs one copying collection (deferred to the end of the triggering
/// operation, never re-entrant). A heap is single-threaded: parallel runs
/// give every thread's work its own heap (DESIGN.md §14).
class CollectedHeap : private SlotWriteObserver {
 public:
  explicit CollectedHeap(const HeapOptions& options);
  ~CollectedHeap() override;

  CollectedHeap(const CollectedHeap&) = delete;
  CollectedHeap& operator=(const CollectedHeap&) = delete;

  // -- Application API (see ObjectStore for the I/O charging model) -------

  /// Allocates an object; may grow the database and may trigger a pending
  /// collection.
  Result<ObjectId> Allocate(uint32_t size, uint32_t num_slots,
                            ObjectId parent_hint = kNullObjectId,
                            uint8_t flags = 0);

  /// Stores a pointer, running the write barrier; may trigger a
  /// collection.
  Status WriteSlot(ObjectId source, uint32_t slot, ObjectId target);

  Result<ObjectId> ReadSlot(ObjectId source, uint32_t slot);
  Status VisitObject(ObjectId object);
  Status WriteData(ObjectId object);

  /// Adds a database root (weight 1 when weights are maintained).
  Status AddRoot(ObjectId object);
  Status RemoveRoot(ObjectId object);

  // -- Collection ----------------------------------------------------------

  /// Runs one policy-selected collection immediately (regardless of the
  /// trigger). Returns the result, or FailedPrecondition if the policy
  /// declined (NoCollection / no candidates).
  Result<CollectionResult> CollectNow();

  /// Collects a specific partition (bypasses the policy).
  Result<CollectionResult> CollectPartition(PartitionId victim);

  /// Runs a whole-database mark-and-copy collection (see
  /// GlobalMarkCollector): reclaims everything unreachable, including
  /// nepotism victims and cross-partition dead cycles.
  Result<GlobalCollectionResult> CollectFullDatabase();

  /// Partitions eligible for collection right now.
  std::vector<PartitionId> CollectionCandidates() const;

  // -- Introspection ---------------------------------------------------------

  const ObjectStore& store() const { return *store_; }
  ObjectStore& mutable_store() { return *store_; }
  const BufferPool& buffer() const { return *buffer_; }
  BufferPool& mutable_buffer() { return *buffer_; }
  const PageDevice& device() const { return *device_; }
  PageDevice& mutable_device() { return *device_; }
  /// The stack-wide metrics registry (device + buffer counters, phases).
  MetricsRegistry* metrics() const { return metrics_.get(); }
  /// Wall-clock self-profiling counters ("wall.*_ns"): how long the
  /// *simulator itself* spends in each phase. Deliberately a separate
  /// registry — the main one feeds SimulationResult, which is
  /// bit-identical across runs, as wall time never is.
  MetricsRegistry* wall_metrics() const { return wall_metrics_.get(); }
  /// Pre-registered handles into wall_metrics() for hot-path scopes.
  WallPhaseTimers* wall_timers() const { return wall_timers_.get(); }
  const InterPartitionIndex& index() const { return index_; }
  const WriteBarrier& barrier() const { return *barrier_; }
  /// Root-distance weights; null unless the policy is WeightedPointer.
  const WeightTracker* weights() const { return weights_.get(); }
  SelectionPolicy& policy() { return *policy_; }
  const HeapStats& stats() const { return stats_; }
  const HeapOptions& options() const { return options_; }

  /// Application/collector I/O so far (buffer pool counters).
  uint64_t app_io() const { return buffer_->stats().app_io(); }
  uint64_t gc_io() const { return buffer_->stats().gc_io(); }
  uint64_t total_io() const { return buffer_->stats().total_io(); }

  /// True if the overwrite trigger has fired and a collection will run at
  /// the end of the current/next heap operation.
  bool collection_pending() const { return collection_pending_; }

  /// Results of every collection performed, in order.
  const std::vector<CollectionResult>& collection_log() const {
    return collection_log_;
  }

  /// Zeroes every measurement (buffer/disk transfer counters, heap
  /// statistics, collection log) while leaving the database, the buffer
  /// *contents*, the remembered sets and the policy state untouched.
  /// Used for warm-start experiments (paper, Section 5): build the
  /// database, reset, and measure only the mutation phase.
  void ResetMeasurement();

 private:
  void OnSlotWrite(const SlotWriteEvent& event) override;

  // Runs the deferred collection if the trigger fired.
  Status MaybeCollect();

  // Updates the storage high-water mark.
  void NoteFootprint();

  // Builds the selection context (runs the oracle census for MostGarbage)
  // into reused scratch; the reference is valid until the next call.
  const SelectionContext& MakeSelectionContext() const;

  // Appends CollectionCandidates() into caller-owned storage.
  void AppendCollectionCandidates(std::vector<PartitionId>* out) const;

  // Arms the pending-collection flag according to the trigger kind.
  void CheckTriggers();

  HeapOptions options_;
  std::unique_ptr<MetricsRegistry> metrics_;
  // Wall-clock self-profiling (see wall_metrics()).
  std::unique_ptr<MetricsRegistry> wall_metrics_;
  std::unique_ptr<WallPhaseTimers> wall_timers_;
  std::unique_ptr<PageDevice> device_;
  std::unique_ptr<BufferPool> buffer_;
  std::unique_ptr<ObjectStore> store_;
  InterPartitionIndex index_;
  std::unique_ptr<WriteBarrier> barrier_;
  std::unique_ptr<WeightTracker> weights_;  // Null when weights are off.
  std::unique_ptr<SelectionPolicy> policy_;
  // policy_->kind(), read once: the trigger check runs on every pointer
  // store and must not make a virtual call.
  PolicyKind policy_kind_;
  // Stable slot handed to registry factories via PolicyContext::store, so
  // a registered policy (e.g. CostBenefit) can observe partition occupancy.
  const ObjectStore* policy_store_view_ = nullptr;
  std::unique_ptr<CopyingCollector> collector_;
  std::unique_ptr<GlobalMarkCollector> global_collector_;

  HeapStats stats_;
  uint32_t overwrites_since_collection_ = 0;
  uint64_t allocated_since_collection_ = 0;
  size_t last_seen_partition_count_ = 0;
  // The most recent allocation, protected as a temporary root until it is
  // linked into the graph (or superseded): a collection firing between an
  // object's birth and its first incoming pointer must not reclaim it.
  ObjectId newborn_;
  bool collection_pending_ = false;
  bool in_collection_ = false;
  std::vector<CollectionResult> collection_log_;

  // Census/selection machinery reused across collections (mutable: the
  // oracle census runs from const MakeSelectionContext; these are pure
  // scratch, not observable heap state).
  mutable ReachabilityAnalyzer census_engine_;
  mutable GarbageCensus census_scratch_;
  mutable SelectionContext selection_scratch_;
};

}  // namespace odbgc

#endif  // ODBGC_CORE_HEAP_H_
