#include "core/copying_collector.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <utility>
#include <vector>

namespace odbgc {

void IndexSplitEvacuation(const ObjectStore& store, InterPartitionIndex* index,
                          PartitionId victim, PartitionId target,
                          const std::function<bool(ObjectId)>& indexed) {
  for (const auto& [from, to] :
       {std::pair{target, victim}, std::pair{victim, target}}) {
    for (const auto& [offset, id] : store.partition(from).objects_by_offset()) {
      if (!indexed(id)) continue;
      const std::vector<ObjectId>& slots = store.Lookup(id)->slots;
      for (uint32_t slot = 0; slot < slots.size(); ++slot) {
        if (!slots[slot].is_null() && store.PartitionOf(slots[slot]) == to) {
          index->AddReference(id, from, slot, slots[slot], to);
        }
      }
    }
  }
}

CopyingCollector::CopyingCollector(ObjectStore* store, BufferPool* buffer,
                                   InterPartitionIndex* index,
                                   WeightTracker* weights,
                                   TraversalOrder order)
    : store_(store),
      buffer_(buffer),
      index_(index),
      weights_(weights),
      order_(order) {
  assert(store_ != nullptr && buffer_ != nullptr && index_ != nullptr);
}

void CopyingCollector::BeginCopyEpoch() {
  ++copy_epoch_;
  if (copy_epoch_ == 0) {
    std::fill(copied_stamp_.begin(), copied_stamp_.end(), 0);
    copy_epoch_ = 1;
  }
  const size_t limit = static_cast<size_t>(store_->id_limit());
  if (copied_stamp_.size() < limit) copied_stamp_.resize(limit, 0);
}

Status CopyingCollector::Evacuate(PartitionId victim, PartitionId target,
                                  const std::vector<ObjectId>& extra_roots,
                                  CollectionResult* result) {
  // "Copied" marks are epoch stamps over the dense id space (no per-
  // collection set allocation; collection never issues new ids, so the
  // stamp array cannot need growing mid-traversal).
  BeginCopyEpoch();
  const auto is_copied = [&](ObjectId id) {
    return copied_stamp_[id.value] == copy_epoch_;
  };

  // Copies everything in the victim reachable from `root`, if the root
  // lies there, into the target partition, charging read+write I/O.
  // Objects are copied when dequeued, so the physical order in the copy
  // target is the traversal order: FIFO gives the paper's breadth-first
  // layout (Cheney-style — children are found in the already-copied
  // parent image, so scanning costs no extra I/O), LIFO gives the
  // depth-first ablation. The worklist is a reused vector: BFS consumes
  // it through a head cursor, DFS off the back.
  const auto copy_from = [&](ObjectId root) -> Status {
    if (store_->PartitionOf(root) != victim) return Status::Ok();
    work_.clear();
    size_t head = 0;
    work_.push_back(root);
    while (order_ == TraversalOrder::kBreadthFirst ? head < work_.size()
                                                   : !work_.empty()) {
      ObjectId id;
      if (order_ == TraversalOrder::kBreadthFirst) {
        id = work_[head++];
      } else {
        id = work_.back();
        work_.pop_back();
      }
      if (is_copied(id)) continue;
      copied_stamp_[id.value] = copy_epoch_;
      const ObjectStore::ObjectInfo* obj = store_->Lookup(id);
      assert(obj != nullptr && obj->partition == victim);
      result->live_bytes_copied += obj->size;
      ++result->live_objects_copied;
      ODBGC_RETURN_IF_ERROR(store_->RelocateObject(id, target));

      auto enqueue = [&](ObjectId child) {
        if (child.is_null() || is_copied(child)) return;
        // Pointers leaving the collected partition are not traversed.
        if (store_->PartitionOf(child) == victim) work_.push_back(child);
      };
      if (order_ == TraversalOrder::kBreadthFirst) {
        for (ObjectId child : obj->slots) enqueue(child);
      } else {
        // Reverse slot order so slot 0 is visited first off the stack.
        for (auto it = obj->slots.rbegin(); it != obj->slots.rend(); ++it) {
          enqueue(*it);
        }
      }
    }
    return Status::Ok();
  };

  // Roots one at a time, as the paper describes ("iterating over the
  // roots one at a time"): database roots in the victim first, then the
  // extra roots, then remembered-set targets. The index's span is read
  // live: nothing re-buckets it until the evacuation is over.
  for (ObjectId root : store_->roots()) ODBGC_RETURN_IF_ERROR(copy_from(root));
  for (ObjectId extra : extra_roots) ODBGC_RETURN_IF_ERROR(copy_from(extra));
  for (ObjectId external : index_->ExternalTargets(victim)) {
    ODBGC_RETURN_IF_ERROR(copy_from(external));
  }

  // Everything still resident in the victim is garbage. One read of the
  // roster in physical (offset) order keeps this deterministic; the
  // survivors' entries are the ones stamped as copied.
  for (const auto& [offset, id] :
       store_->partition(victim).objects_by_offset()) {
    if (is_copied(id)) continue;
    const ObjectStore::ObjectInfo* info = store_->Lookup(id);
    assert(info != nullptr && info->partition == victim &&
           info->offset == offset);
    result->garbage_bytes_reclaimed += info->size;
    ++result->garbage_objects_reclaimed;
    if (weights_ != nullptr) weights_->OnObjectDied(id);
    ODBGC_RETURN_IF_ERROR(store_->DropObject(id));
  }
  return Status::Ok();
}

Result<CollectionResult> CopyingCollector::Collect(
    PartitionId victim, const std::vector<ObjectId>& extra_roots) {
  if (victim >= store_->partition_count()) {
    return Status::OutOfRange("Collect: no such partition");
  }
  const PartitionId target = store_->empty_partition();
  if (target == kInvalidPartition) {
    return Status::FailedPrecondition(
        "Collect: store has no reserved empty partition");
  }
  if (victim == target) {
    return Status::InvalidArgument(
        "Collect: cannot collect the reserved empty partition");
  }

  PhaseScope phase(buffer_, IoPhase::kCollector);
  // Announce the victim's extent before the copy traversal touches it: a
  // read-ahead backend stages those pages while the traversal works, an
  // in-memory backend ignores the hint. Never affects simulated I/O.
  buffer_->PrefetchExtent(store_->partition(victim).extent());
  const BufferStats before = buffer_->stats();

  CollectionResult result;
  result.collected = victim;
  result.copy_target = target;

  const Status evacuated = Evacuate(victim, target, extra_roots, &result);
  // One pass over the victim's index members, not its residents: the
  // survivors' records move to the target and the garbage's out-pointers
  // leave the remembered sets they fed — after a failure too, so the
  // index matches whatever had moved.
  index_->OnPartitionEvacuated(
      victim, target, [&](ObjectId id) { return store_->PartitionOf(id); });
  if (!evacuated.ok()) {
    store_->AbandonEvacuation(victim);
    // Garbage keeps its out-pointers indexed until it is dropped.
    IndexSplitEvacuation(*store_, index_, victim, target,
                         [](ObjectId) { return true; });
    return evacuated;
  }
  ODBGC_RETURN_IF_ERROR(store_->SwapEmptyPartition(victim));

  const BufferStats after = buffer_->stats();
  result.page_reads = after.reads_gc - before.reads_gc;
  result.page_writes = after.writes_gc - before.writes_gc;
  return result;
}

}  // namespace odbgc
