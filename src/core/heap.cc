#include "core/heap.h"

#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "core/reachability.h"
#include "storage/device_registry.h"

namespace odbgc {

namespace {

// Builds the configured backend through the device registry; `device_spec`
// wins over the `device` kind enum. Like an unregistered policy name, a
// bad spec is a configuration error and fails loudly.
std::unique_ptr<PageDevice> MakeConfiguredDevice(HeapOptions& options,
                                                 MetricsRegistry* registry) {
  DeviceContext context;
  context.page_size = options.store.page_size;
  context.registry = registry;
  context.disk_cost = options.disk_cost;
  context.ssd_cost = options.ssd_cost;
  context.file = options.file_device;
  // The file backend's estimated-time surface uses the paper's disk model
  // unless the caller overrode it explicitly.
  context.file.cost = options.disk_cost;
  const std::string spec = options.device_spec.empty()
                               ? DeviceKindName(options.device)
                               : options.device_spec;
  auto made = MakeDeviceFromSpec(spec, context);
  if (!made.ok()) {
    std::fprintf(stderr, "odbgc: %s\n", made.status().ToString().c_str());
    std::abort();
  }
  std::unique_ptr<PageDevice> device = std::move(made).value();
  // Both identity surfaces now reflect the instantiated backend.
  options.device = device->kind();
  options.device_spec = spec;
  return device;
}

// Phase-event publication: the clock is only read when a run is observed.
using PhaseClock = std::chrono::steady_clock;

PhaseClock::time_point PhaseStartIf(const SimObserver* observer) {
  return observer != nullptr ? PhaseClock::now() : PhaseClock::time_point{};
}

void PublishPhase(SimObserver* observer, const char* phase,
                  PhaseClock::time_point start) {
  if (observer == nullptr) return;
  PhaseEvent event;
  event.phase = phase;
  event.wall_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(PhaseClock::now() -
                                                           start)
          .count());
  observer->OnPhase(event);
}

}  // namespace

CollectedHeap::CollectedHeap(const HeapOptions& options) : options_(options) {
  metrics_ = std::make_unique<MetricsRegistry>();
  device_ = MakeConfiguredDevice(options_, metrics_.get());
  buffer_ = std::make_unique<BufferPool>(device_.get(), options_.buffer_pages,
                                         options_.shared_arena);
  store_ = std::make_unique<ObjectStore>(options_.store, device_.get(),
                                         buffer_.get());
  wall_metrics_ = std::make_unique<MetricsRegistry>();
  wall_timers_ = std::make_unique<WallPhaseTimers>(wall_metrics_.get());
  policy_store_view_ = store_.get();
  if (options_.policy_factory) {
    policy_ = options_.policy_factory();
  } else if (!options_.policy_name.empty()) {
    PolicyContext context;
    context.seed = options_.seed;
    context.store = &policy_store_view_;
    auto made = MakePolicy(context, options_.policy_name);
    if (!made.ok()) {
      // Configuration error, not a runtime condition: the registry is
      // fixed by the time a heap is built, so fail loudly. Callers that
      // take untrusted names validate with IsPolicyRegistered first.
      std::fprintf(stderr, "odbgc: %s\n",
                   made.status().ToString().c_str());
      std::abort();
    }
    policy_ = std::move(made).value();
  } else {
    policy_ = MakePolicy(options_.policy, options_.seed);
  }
  // Whichever path built the policy, both identity surfaces now reflect it.
  options_.policy = policy_->kind();
  options_.policy_name = policy_->name();
  device_->set_observer(options_.observer);
  const bool want_weights =
      options_.weights == WeightMode::kOn ||
      (options_.weights == WeightMode::kAuto &&
       options_.policy == PolicyKind::kWeightedPointer);
  if (want_weights) {
    weights_ = std::make_unique<WeightTracker>(store_.get());
  }
  barrier_ = std::make_unique<WriteBarrier>(options_.barrier, store_.get(),
                                            &index_, options_.card_size);
  collector_ = std::make_unique<CopyingCollector>(
      store_.get(), buffer_.get(), &index_, weights_.get(),
      options_.traversal);
  global_collector_ = std::make_unique<GlobalMarkCollector>(
      store_.get(), buffer_.get(), &index_, weights_.get());
  store_->set_slot_write_observer(this);
  last_seen_partition_count_ = store_->partition_count();
  NoteFootprint();
}

CollectedHeap::~CollectedHeap() { store_->set_slot_write_observer(nullptr); }

Result<ObjectId> CollectedHeap::Allocate(uint32_t size, uint32_t num_slots,
                                         ObjectId parent_hint, uint8_t flags) {
  auto id = store_->Allocate(size, num_slots, parent_hint, flags);
  if (id.ok()) {
    ++stats_.objects_allocated;
    stats_.bytes_allocated += size;
    allocated_since_collection_ += size;
    newborn_ = *id;
    NoteFootprint();
    CheckTriggers();
    ODBGC_RETURN_IF_ERROR(MaybeCollect());
  }
  return id;
}

Status CollectedHeap::WriteSlot(ObjectId source, uint32_t slot,
                                ObjectId target) {
  ODBGC_RETURN_IF_ERROR(store_->WriteSlot(source, slot, target));
  // Weight relaxation happens after the barrier observer so the policy saw
  // the *old* target's weight; the new edge may now lower the new
  // target's weight.
  if (weights_ != nullptr && !target.is_null()) {
    ODBGC_RETURN_IF_ERROR(weights_->OnPointerStored(source, target));
  }
  return MaybeCollect();
}

Result<ObjectId> CollectedHeap::ReadSlot(ObjectId source, uint32_t slot) {
  return store_->ReadSlot(source, slot);
}

Status CollectedHeap::VisitObject(ObjectId object) {
  return store_->VisitObject(object);
}

Status CollectedHeap::WriteData(ObjectId object) {
  return store_->WriteData(object);
}

Status CollectedHeap::AddRoot(ObjectId object) {
  ODBGC_RETURN_IF_ERROR(store_->AddRoot(object));
  if (object == newborn_) newborn_ = kNullObjectId;
  if (weights_ != nullptr) {
    ODBGC_RETURN_IF_ERROR(weights_->OnRootAdded(object));
  }
  return Status::Ok();
}

Status CollectedHeap::RemoveRoot(ObjectId object) {
  return store_->RemoveRoot(object);
}

void CollectedHeap::OnSlotWrite(const SlotWriteEvent& event) {
  // Once the newest allocation is referenced from the graph, it no longer
  // needs birth protection.
  if (!event.new_target.is_null() && event.new_target == newborn_) {
    newborn_ = kNullObjectId;
  }
  if (!event.new_target.is_null()) ++stats_.pointer_stores;
  if (event.is_overwrite()) {
    ++stats_.pointer_overwrites;
    ++overwrites_since_collection_;
  }

  // Policy hint first (needs the overwritten target's pre-store weight).
  const uint8_t old_weight =
      (weights_ != nullptr && !event.old_target.is_null())
          ? weights_->GetWeight(event.old_target)
          : WeightTracker::kMaxWeight;
  policy_->OnPointerStore(event, old_weight);

  // Remembered-set maintenance: the write barrier sees inter-partition
  // references created and destroyed (synchronously or deferred,
  // depending on the configured BarrierMode).
  {
    ScopedWallTimer timer(options_.profile_hot_paths
                              ? wall_timers_->index_maintenance
                              : nullptr);
    barrier_->OnSlotWrite(event);
  }

  CheckTriggers();
}

void CollectedHeap::CheckTriggers() {
  if (in_collection_ || options_.policy == PolicyKind::kNoCollection) {
    return;
  }
  switch (options_.trigger) {
    case TriggerKind::kPointerOverwrites:
      // The paper's choice: a fixed number of pointer overwrites.
      if (options_.overwrite_trigger > 0 &&
          overwrites_since_collection_ >= options_.overwrite_trigger) {
        collection_pending_ = true;
      }
      break;
    case TriggerKind::kAllocatedBytes:
      if (options_.allocation_trigger_bytes > 0 &&
          allocated_since_collection_ >= options_.allocation_trigger_bytes) {
        collection_pending_ = true;
      }
      break;
    case TriggerKind::kDatabaseGrowth:
      if (store_->partition_count() > last_seen_partition_count_) {
        last_seen_partition_count_ = store_->partition_count();
        collection_pending_ = true;
      }
      break;
  }
}

Status CollectedHeap::MaybeCollect() {
  if (!collection_pending_ || in_collection_) return Status::Ok();
  collection_pending_ = false;
  overwrites_since_collection_ = 0;
  allocated_since_collection_ = 0;
  last_seen_partition_count_ = store_->partition_count();
  for (uint32_t i = 0; i < options_.partitions_per_collection; ++i) {
    auto result = CollectNow();
    if (!result.ok()) {
      // Declining (no candidates) is not an error for the trigger path.
      if (result.status().code() == StatusCode::kFailedPrecondition) break;
      return result.status();
    }
  }
  return Status::Ok();
}

void CollectedHeap::AppendCollectionCandidates(
    std::vector<PartitionId>* out) const {
  for (size_t pid = 0; pid < store_->partition_count(); ++pid) {
    const PartitionId id = static_cast<PartitionId>(pid);
    if (id == store_->empty_partition()) continue;
    if (store_->partition(id).allocated_bytes() == 0) continue;
    out->push_back(id);
  }
}

std::vector<PartitionId> CollectedHeap::CollectionCandidates() const {
  std::vector<PartitionId> candidates;
  AppendCollectionCandidates(&candidates);
  return candidates;
}

const SelectionContext& CollectedHeap::MakeSelectionContext() const {
  selection_scratch_.candidates.clear();
  AppendCollectionCandidates(&selection_scratch_.candidates);
  selection_scratch_.garbage_bytes_per_partition.clear();
  if (options_.policy == PolicyKind::kMostGarbage) {
    // The oracle ranks partitions by garbage a collection would actually
    // reclaim now (excluding remembered-set-protected garbage) — ranking
    // by raw garbage would keep re-selecting protected partitions.
    ScopedWallTimer timer(wall_timers_->census);
    census_engine_.CensusInto(*store_, &census_scratch_);
    selection_scratch_.garbage_bytes_per_partition =
        census_scratch_.collectable_bytes_per_partition;
  }
  return selection_scratch_;
}

Result<CollectionResult> CollectedHeap::CollectNow() {
  const SelectionContext& context = MakeSelectionContext();
  const PartitionId victim = policy_->Select(context);
  if (victim == kInvalidPartition) {
    return Status::FailedPrecondition(
        "policy declined to select a partition");
  }
  return CollectPartition(victim);
}

Result<CollectionResult> CollectedHeap::CollectPartition(PartitionId victim) {
  assert(!in_collection_);
  std::vector<ObjectId> extra_roots;
  if (!newborn_.is_null() && store_->Exists(newborn_)) {
    extra_roots.push_back(newborn_);
  }
  // The lambda scopes the wall timer to the collection proper: a chained
  // full collection below must land in wall.full_collection_ns only.
  const PhaseClock::time_point phase_start = PhaseStartIf(options_.observer);
  auto result = [&]() -> Result<CollectionResult> {
    ScopedWallTimer timer(wall_timers_->collection);
    in_collection_ = true;
    {
      // Deferred barrier modes catch the index up now, charging their
      // catch-up I/O to the collector.
      PhaseScope phase(buffer_.get(), IoPhase::kCollector);
      const Status prepared = barrier_->PrepareForCollection();
      if (!prepared.ok()) {
        in_collection_ = false;
        return prepared;
      }
    }
    auto collected = collector_->Collect(victim, extra_roots);
    in_collection_ = false;
    return collected;
  }();
  PublishPhase(options_.observer, "collection", phase_start);
  if (!result.ok()) return result;
  barrier_->OnPartitionEmptied(victim);

  ++stats_.collections;
  stats_.garbage_bytes_reclaimed += result->garbage_bytes_reclaimed;
  stats_.garbage_objects_reclaimed += result->garbage_objects_reclaimed;
  stats_.live_bytes_copied += result->live_bytes_copied;
  stats_.live_objects_copied += result->live_objects_copied;
  policy_->OnPartitionCollected(victim);
  collection_log_.push_back(*result);
  if (options_.observer != nullptr) {
    CollectionEvent event;
    event.ordinal = stats_.collections;
    event.victim = victim;
    event.copy_target = result->copy_target;
    event.garbage_reclaimed_bytes = result->garbage_bytes_reclaimed;
    event.live_bytes_copied = result->live_bytes_copied;
    event.page_reads = result->page_reads;
    event.page_writes = result->page_writes;
    options_.observer->OnCollection(event);
  }
  NoteFootprint();

  if (options_.full_collection_interval > 0 &&
      stats_.collections % options_.full_collection_interval == 0) {
    ODBGC_RETURN_IF_ERROR(CollectFullDatabase().status());
  }
  return result;
}

Result<GlobalCollectionResult> CollectedHeap::CollectFullDatabase() {
  assert(!in_collection_);
  std::vector<ObjectId> extra_roots;
  if (!newborn_.is_null() && store_->Exists(newborn_)) {
    extra_roots.push_back(newborn_);
  }
  const PhaseClock::time_point phase_start = PhaseStartIf(options_.observer);
  auto result = [&]() -> Result<GlobalCollectionResult> {
    ScopedWallTimer timer(wall_timers_->full_collection);
    in_collection_ = true;
    {
      PhaseScope phase(buffer_.get(), IoPhase::kCollector);
      const Status prepared = barrier_->PrepareForCollection();
      if (!prepared.ok()) {
        in_collection_ = false;
        return prepared;
      }
    }
    auto collected = global_collector_->CollectAll(extra_roots);
    in_collection_ = false;
    return collected;
  }();
  PublishPhase(options_.observer, "full_collection", phase_start);
  if (!result.ok()) return result;
  // Every partition's contents moved or died; all cards are stale-clean.
  for (size_t pid = 0; pid < store_->partition_count(); ++pid) {
    barrier_->OnPartitionEmptied(static_cast<PartitionId>(pid));
  }

  ++stats_.full_collections;
  stats_.garbage_bytes_reclaimed += result->garbage_bytes_reclaimed;
  stats_.garbage_objects_reclaimed += result->garbage_objects_reclaimed;
  stats_.live_bytes_copied += result->live_bytes_copied;
  stats_.live_objects_copied += result->live_objects_copied;
  // Every partition was collected: reset all policy hints.
  for (size_t pid = 0; pid < store_->partition_count(); ++pid) {
    policy_->OnPartitionCollected(static_cast<PartitionId>(pid));
  }
  NoteFootprint();
  return result;
}

void CollectedHeap::ResetMeasurement() {
  buffer_->ResetStats();
  device_->ResetStats();
  wall_metrics_->ResetCounters();
  stats_ = HeapStats{};
  collection_log_.clear();
  NoteFootprint();
}

void CollectedHeap::NoteFootprint() {
  const uint64_t total = store_->total_bytes();
  if (total > stats_.max_total_bytes) {
    stats_.max_total_bytes = total;
    stats_.max_partitions = store_->partition_count();
  }
}

}  // namespace odbgc
