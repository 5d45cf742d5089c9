#include "core/remembered_set.h"

#include <algorithm>
#include <cassert>

namespace odbgc {

void InterPartitionIndex::EnsurePartition(PartitionId partition) {
  assert(partition != kInvalidPartition);
  const size_t needed = static_cast<size_t>(partition) + 1;
  if (targets_in_partition_.size() < needed) {
    targets_in_partition_.resize(needed);
    sources_in_partition_.resize(needed);
  }
}

void InterPartitionIndex::AddReference(ObjectId source,
                                       PartitionId source_partition,
                                       uint32_t slot, ObjectId target,
                                       PartitionId target_partition) {
  assert(source_partition != target_partition);
  EnsurePartition(std::max(source_partition, target_partition));

  TargetRecord& target_record = entries_by_target_[target];
  target_record.locations.push_back({source, slot});
  target_record.partition = target_partition;
  targets_in_partition_[target_partition].insert(target);

  SourceRecord& source_record = out_pointers_by_source_[source];
  source_record.out_pointers.push_back({slot, target});
  source_record.partition = source_partition;
  sources_in_partition_[source_partition].insert(source);

  ++entry_count_;
}

void InterPartitionIndex::RemoveReference(ObjectId source, uint32_t slot,
                                          ObjectId target) {
  auto tit = entries_by_target_.find(target);
  if (tit == entries_by_target_.end()) return;
  PointerLocationList& locs = tit->second.locations;
  auto lit = std::find(locs.begin(), locs.end(), PointerLocation{source, slot});
  if (lit == locs.end()) return;
  locs.erase(lit);
  --entry_count_;
  if (locs.empty()) {
    const PartitionId target_partition = tit->second.partition;
    entries_by_target_.erase(tit);
    if (target_partition < targets_in_partition_.size()) {
      targets_in_partition_[target_partition].erase(target);
    }
  }

  auto sit = out_pointers_by_source_.find(source);
  if (sit != out_pointers_by_source_.end()) {
    OutPointerList& outs = sit->second.out_pointers;
    auto oit =
        std::find(outs.begin(), outs.end(), std::make_pair(slot, target));
    if (oit != outs.end()) outs.erase(oit);
    if (outs.empty()) {
      const PartitionId source_partition = sit->second.partition;
      out_pointers_by_source_.erase(sit);
      if (source_partition < sources_in_partition_.size()) {
        sources_in_partition_[source_partition].erase(source);
      }
    }
  }
}

void InterPartitionIndex::OnObjectMoved(ObjectId object, PartitionId from,
                                        PartitionId to) {
  EnsurePartition(std::max(from, to));
  auto tit = entries_by_target_.find(object);
  if (tit != entries_by_target_.end() &&
      targets_in_partition_[from].erase(object)) {
    targets_in_partition_[to].insert(object);
    tit->second.partition = to;
  }
  auto sit = out_pointers_by_source_.find(object);
  if (sit != out_pointers_by_source_.end() &&
      sources_in_partition_[from].erase(object)) {
    sources_in_partition_[to].insert(object);
    sit->second.partition = to;
  }
}

void InterPartitionIndex::OnObjectDied(ObjectId object, PartitionId partition) {
  assert(!HasExternalReferences(object) &&
         "a partition-local collection cannot reclaim an externally "
         "referenced object");
  RemoveOutPointersOf(object, partition);
}

void InterPartitionIndex::RemoveOutPointersOf(ObjectId source,
                                              PartitionId partition) {
  auto sit = out_pointers_by_source_.find(source);
  if (sit != out_pointers_by_source_.end()) {
    // RemoveReference mutates the source's out list; work on a copy.
    const OutPointerList outs = sit->second.out_pointers;
    for (const auto& [slot, target] : outs) {
      RemoveReference(source, slot, target);
    }
  }
  if (partition < sources_in_partition_.size()) {
    sources_in_partition_[partition].erase(source);
  }
}

std::span<const ObjectId> InterPartitionIndex::ExternalTargets(
    PartitionId partition) const {
  if (partition >= targets_in_partition_.size()) return {};
  return targets_in_partition_[partition].sorted();
}

std::vector<ObjectId> InterPartitionIndex::ExternalTargetsInPartition(
    PartitionId partition) const {
  const std::span<const ObjectId> view = ExternalTargets(partition);
  return std::vector<ObjectId>(view.begin(), view.end());
}

const PointerLocationList* InterPartitionIndex::EntriesForTarget(
    ObjectId target) const {
  auto it = entries_by_target_.find(target);
  return it == entries_by_target_.end() ? nullptr : &it->second.locations;
}

bool InterPartitionIndex::HasExternalReferences(ObjectId target) const {
  return entries_by_target_.count(target) > 0;
}

std::span<const ObjectId> InterPartitionIndex::Sources(
    PartitionId partition) const {
  if (partition >= sources_in_partition_.size()) return {};
  return sources_in_partition_[partition].sorted();
}

std::vector<ObjectId> InterPartitionIndex::SourcesInPartition(
    PartitionId partition) const {
  const std::span<const ObjectId> view = Sources(partition);
  return std::vector<ObjectId>(view.begin(), view.end());
}

const OutPointerList* InterPartitionIndex::OutPointersOfSource(
    ObjectId source) const {
  auto it = out_pointers_by_source_.find(source);
  return it == out_pointers_by_source_.end() ? nullptr
                                             : &it->second.out_pointers;
}

size_t InterPartitionIndex::EntryCountForPartition(
    PartitionId partition) const {
  size_t n = 0;
  for (ObjectId target : ExternalTargets(partition)) {
    auto eit = entries_by_target_.find(target);
    if (eit != entries_by_target_.end()) n += eit->second.locations.size();
  }
  return n;
}

}  // namespace odbgc
