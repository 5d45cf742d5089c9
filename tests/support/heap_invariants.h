// Structural invariants of a collected heap's object store and
// inter-partition index, checked by code: tests run the check after every
// collection and full collection, and on a heap whose collection failed.
#ifndef ODBGC_TESTS_SUPPORT_HEAP_INVARIANTS_H_
#define ODBGC_TESTS_SUPPORT_HEAP_INVARIANTS_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "core/heap.h"

namespace odbgc {

/// Checks that
///  - each partition's roster lists exactly the objects whose table entry
///    names that partition, at the offsets the table records;
///  - roster offsets strictly increase, objects do not overlap, and every
///    object ends at or below its partition's bump pointer;
///  - each partition's object_count() equals its roster size;
///  - the reserved empty partition holds no object and no index member;
///  - every remembered-set and out-set member sits in the set of the
///    partition its object occupies, and every object the index holds a
///    target or source record for is a member of its partition's set.
/// Fails with the first violation found.
inline ::testing::AssertionResult HeapInvariantsHold(
    const CollectedHeap& heap) {
  const ObjectStore& store = heap.store();
  const InterPartitionIndex& index = heap.index();
  const auto member = [](std::span<const ObjectId> set, ObjectId id) {
    return std::binary_search(set.begin(), set.end(), id);
  };
  size_t listed = 0;
  for (PartitionId pid = 0; pid < store.partition_count(); ++pid) {
    const Partition& partition = store.partition(pid);
    const Partition::Roster& roster = partition.objects_by_offset();
    const auto fail = [pid] {
      return ::testing::AssertionFailure() << "partition " << pid << ": ";
    };
    if (partition.object_count() != roster.size()) {
      return fail() << "object_count() is " << partition.object_count()
                    << " but the roster has " << roster.size() << " entries";
    }
    const std::span<const ObjectId> targets = index.ExternalTargets(pid);
    const std::span<const ObjectId> sources = index.Sources(pid);
    // Sizes are positive, so no overlap also means increasing offsets.
    uint32_t end = 0;
    for (const auto& [offset, id] : roster) {
      const ObjectStore::ObjectInfo* info = store.Lookup(id);
      if (info == nullptr || info->partition != pid ||
          info->offset != offset) {
        return fail() << "the roster lists object " << id.value
                      << " at offset " << offset
                      << ", where the object table has no such object";
      }
      if (offset < end) {
        return fail() << "object " << id.value << " at offset " << offset
                      << " overlaps the entry before it, which ends at "
                      << end;
      }
      end = offset + info->size;
      if (end > partition.allocated_bytes()) {
        return fail() << "object " << id.value << " ends at " << end
                      << ", past the bump pointer "
                      << partition.allocated_bytes();
      }
      if (index.HasExternalReferences(id) && !member(targets, id)) {
        return fail() << "externally referenced object " << id.value
                      << " is missing from the remembered set";
      }
      if (index.OutPointersOfSource(id) != nullptr && !member(sources, id)) {
        return fail() << "out-pointer holder " << id.value
                      << " is missing from the out-set";
      }
    }
    listed += roster.size();
    for (ObjectId id : targets) {
      if (store.PartitionOf(id) != pid) {
        return fail() << "remembered-set member " << id.value
                      << " occupies partition " << store.PartitionOf(id);
      }
    }
    for (ObjectId id : sources) {
      if (store.PartitionOf(id) != pid) {
        return fail() << "out-set member " << id.value
                      << " occupies partition " << store.PartitionOf(id);
      }
    }
  }
  if (listed != store.object_count()) {
    return ::testing::AssertionFailure()
           << "the rosters list " << listed << " objects, the table holds "
           << store.object_count();
  }
  const PartitionId empty = store.empty_partition();
  if (empty != kInvalidPartition &&
      (!store.partition(empty).empty() ||
       !index.ExternalTargets(empty).empty() ||
       !index.Sources(empty).empty())) {
    return ::testing::AssertionFailure()
           << "the reserved empty partition " << empty
           << " holds objects or index members";
  }
  return ::testing::AssertionSuccess();
}

}  // namespace odbgc

#endif  // ODBGC_TESTS_SUPPORT_HEAP_INVARIANTS_H_
