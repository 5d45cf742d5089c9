#include "core/global_collector.h"

#include <cassert>
#include <vector>

#include "core/reachability.h"

namespace odbgc {

GlobalMarkCollector::GlobalMarkCollector(ObjectStore* store,
                                         BufferPool* buffer,
                                         InterPartitionIndex* index,
                                         WeightTracker* weights)
    : store_(store), buffer_(buffer), index_(index), weights_(weights) {
  assert(store_ != nullptr && buffer_ != nullptr && index_ != nullptr);
}

Result<GlobalCollectionResult> GlobalMarkCollector::CollectAll(
    const std::vector<ObjectId>& extra_roots) {
  if (store_->empty_partition() == kInvalidPartition) {
    return Status::FailedPrecondition(
        "CollectAll: store has no reserved empty partition");
  }

  PhaseScope phase(buffer_, IoPhase::kCollector);
  const BufferStats before = buffer_->stats();
  GlobalCollectionResult result;

  // --- 1. Mark. The live set comes from the shadow graph, but the I/O a
  // real marker would do is charged in step 2: one header+slots read per
  // live object.
  auto live = ComputeLiveSet(*store_);
  // Extra roots (e.g. the not-yet-linked newest allocation) and their
  // reachable closure join the live set.
  std::vector<ObjectId> frontier;
  for (ObjectId extra : extra_roots) {
    if (store_->Exists(extra) && live.insert(extra).second) {
      frontier.push_back(extra);
    }
  }
  while (!frontier.empty()) {
    const ObjectId id = frontier.back();
    frontier.pop_back();
    for (ObjectId child : store_->Lookup(id)->slots) {
      if (!child.is_null() && store_->Exists(child) &&
          live.insert(child).second) {
        frontier.push_back(child);
      }
    }
  }

  // --- 2. One walk in roster order (partition id, then offset) charges
  // the marking reads and collects the dead set. The order is the store's
  // own, never the set's: unordered_set iteration order is unspecified, and
  // it would decide which reads hit the buffer.
  std::vector<std::pair<ObjectId, PartitionId>> dead;
  const size_t total_objects = store_->object_count();
  dead.reserve(total_objects > live.size() ? total_objects - live.size() : 0);
  for (size_t pid = 0; pid < store_->partition_count(); ++pid) {
    for (const auto& [offset, id] :
         store_->partition(pid).objects_by_offset()) {
      if (live.count(id) > 0) {
        ODBGC_RETURN_IF_ERROR(store_->VisitObject(id));
      } else {
        dead.push_back({id, static_cast<PartitionId>(pid)});
      }
    }
  }
  // Retire the dead set's inter-partition entries wholesale.
  for (const auto& [id, pid] : dead) {
    index_->RemoveOutPointersOf(id, pid);
    if (weights_ != nullptr) weights_->OnObjectDied(id);
  }

  // --- 3. Sweep: per partition, copy survivors into the empty partition
  // and drop the rest; the vacated partition becomes the next copy target.
  // A partition that has served as a copy target holds only survivors
  // that were already copied once — skipping it keeps every object's copy
  // count at exactly one. The original empty partition starts processed;
  // thereafter every new empty is the just-swept victim, so the current
  // target is always in the processed set.
  const size_t partition_count = store_->partition_count();
  std::vector<bool> processed(partition_count, false);
  processed[store_->empty_partition()] = true;
  for (size_t pid = 0; pid < partition_count; ++pid) {
    const PartitionId victim = static_cast<PartitionId>(pid);
    if (processed[victim]) continue;
    processed[victim] = true;
    if (store_->partition(victim).allocated_bytes() == 0) continue;
    const PartitionId target = store_->empty_partition();

    // One read of the roster: copying appends to the target's roster and
    // leaves the victim's as it is until the swap resets it.
    const Status swept = [&]() -> Status {
      for (const auto& [offset, id] :
           store_->partition(victim).objects_by_offset()) {
        const uint32_t size = store_->Lookup(id)->size;
        if (live.count(id) > 0) {
          result.live_bytes_copied += size;
          ++result.live_objects_copied;
          ODBGC_RETURN_IF_ERROR(store_->RelocateObject(id, target));
        } else {
          result.garbage_bytes_reclaimed += size;
          ++result.garbage_objects_reclaimed;
          assert(!index_->HasExternalReferences(id));
          ODBGC_RETURN_IF_ERROR(store_->DropObject(id));
        }
      }
      return Status::Ok();
    }();
    // Every dead object's out-pointers are already retired, so this only
    // moves the survivors' index records to the target.
    index_->OnPartitionEvacuated(
        victim, target, [&](ObjectId id) { return store_->PartitionOf(id); });
    if (!swept.ok()) {
      store_->AbandonEvacuation(victim);
      return swept;
    }
    ODBGC_RETURN_IF_ERROR(store_->SwapEmptyPartition(victim));
    ++result.partitions_processed;
  }

  const BufferStats after = buffer_->stats();
  result.page_reads = after.reads_gc - before.reads_gc;
  result.page_writes = after.writes_gc - before.writes_gc;
  return result;
}

}  // namespace odbgc
