// Model-based equivalence test for the flat InterPartitionIndex: a
// randomized stream of add/remove operations and partition evacuations
// (whose residents move to the reserved empty partition or die, and which
// sometimes fail part-way) is applied both to the real index and to a
// deliberately naive reference model (a flat list of entries plus an
// object->partition map, queried by linear scans — the semantics of the
// original unordered_map<PartitionId, std::set<ObjectId>> implementation
// without any of its structure). Every query surface must agree at every
// step.
#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/remembered_set.h"

namespace odbgc {
namespace {

struct ModelEntry {
  ObjectId source;
  uint32_t slot;
  ObjectId target;
};

/// The reference model. Entries keep insertion order (the real index's
/// per-object lists are order-preserving); partitions live in a side map
/// updated object by object as an evacuation moves them, where the real
/// index re-buckets a whole partition's members in one pass.
class ReferenceIndex {
 public:
  void AddReference(ObjectId source, PartitionId source_partition,
                    uint32_t slot, ObjectId target,
                    PartitionId target_partition) {
    entries_.push_back({source, slot, target});
    partition_[source] = source_partition;
    partition_[target] = target_partition;
  }

  void RemoveReference(ObjectId source, uint32_t slot, ObjectId target) {
    // The real index is a no-op unless the (source, slot) location is
    // recorded for `target`; the first matching entry is removed.
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->source == source && it->slot == slot && it->target == target) {
        entries_.erase(it);
        return;
      }
    }
  }

  void MoveObject(ObjectId object, PartitionId to) { partition_[object] = to; }

  void RemoveOutPointersOf(ObjectId source) {
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                  [&](const ModelEntry& e) {
                                    return e.source == source;
                                  }),
                   entries_.end());
  }

  bool HasExternalReferences(ObjectId target) const {
    return std::any_of(entries_.begin(), entries_.end(),
                       [&](const ModelEntry& e) { return e.target == target; });
  }

  size_t entry_count() const { return entries_.size(); }

  std::vector<ObjectId> TargetsInPartition(PartitionId p) const {
    std::vector<ObjectId> ids;
    for (const ModelEntry& e : entries_) {
      if (PartitionOf(e.target) == p) ids.push_back(e.target);
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids;
  }

  std::vector<ObjectId> SourcesInPartition(PartitionId p) const {
    std::vector<ObjectId> ids;
    for (const ModelEntry& e : entries_) {
      if (PartitionOf(e.source) == p) ids.push_back(e.source);
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids;
  }

  size_t EntryCountForPartition(PartitionId p) const {
    size_t n = 0;
    for (const ModelEntry& e : entries_) {
      if (PartitionOf(e.target) == p) ++n;
    }
    return n;
  }

  std::vector<PointerLocation> EntriesForTarget(ObjectId target) const {
    std::vector<PointerLocation> locations;
    for (const ModelEntry& e : entries_) {
      if (e.target == target) locations.push_back({e.source, e.slot});
    }
    return locations;
  }

  std::vector<std::pair<uint32_t, ObjectId>> OutPointersOfSource(
      ObjectId source) const {
    std::vector<std::pair<uint32_t, ObjectId>> outs;
    for (const ModelEntry& e : entries_) {
      if (e.source == source) outs.emplace_back(e.slot, e.target);
    }
    return outs;
  }

  const std::vector<ModelEntry>& entries() const { return entries_; }

  PartitionId PartitionOf(ObjectId id) const {
    auto it = partition_.find(id);
    return it == partition_.end() ? kInvalidPartition : it->second;
  }

 private:
  std::vector<ModelEntry> entries_;
  std::map<ObjectId, PartitionId> partition_;
};

class IndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

void ExpectSameState(const InterPartitionIndex& index,
                     const ReferenceIndex& model, uint32_t num_objects,
                     uint32_t num_partitions, uint64_t step) {
  SCOPED_TRACE("step " + std::to_string(step));
  EXPECT_EQ(index.entry_count(), model.entry_count());
  for (PartitionId p = 0; p < num_partitions; ++p) {
    const auto targets = index.ExternalTargets(p);
    EXPECT_EQ(std::vector<ObjectId>(targets.begin(), targets.end()),
              model.TargetsInPartition(p))
        << "targets of partition " << p;
    const auto sources = index.Sources(p);
    EXPECT_EQ(std::vector<ObjectId>(sources.begin(), sources.end()),
              model.SourcesInPartition(p))
        << "sources of partition " << p;
    EXPECT_EQ(index.EntryCountForPartition(p), model.EntryCountForPartition(p))
        << "entry count of partition " << p;
  }
  for (uint64_t o = 1; o <= num_objects; ++o) {
    const ObjectId id{o};
    EXPECT_EQ(index.HasExternalReferences(id), model.HasExternalReferences(id))
        << "object " << o;
    const auto expected_locations = model.EntriesForTarget(id);
    const auto* locations = index.EntriesForTarget(id);
    if (expected_locations.empty()) {
      EXPECT_EQ(locations, nullptr) << "object " << o;
    } else {
      ASSERT_NE(locations, nullptr) << "object " << o;
      EXPECT_EQ(std::vector<PointerLocation>(locations->begin(),
                                             locations->end()),
                expected_locations)
          << "object " << o;
    }
    const auto expected_outs = model.OutPointersOfSource(id);
    const auto* outs = index.OutPointersOfSource(id);
    if (expected_outs.empty()) {
      EXPECT_EQ(outs, nullptr) << "object " << o;
    } else {
      ASSERT_NE(outs, nullptr) << "object " << o;
      EXPECT_EQ((std::vector<std::pair<uint32_t, ObjectId>>(outs->begin(),
                                                            outs->end())),
                expected_outs)
          << "object " << o;
    }
  }
}

TEST_P(IndexPropertyTest, MatchesReferenceModelOverRandomOperations) {
  constexpr uint32_t kObjects = 48;
  constexpr uint32_t kPartitions = 6;
  constexpr uint32_t kSlots = 4;
  constexpr uint64_t kSteps = 3000;

  std::mt19937_64 rng(GetParam());
  auto uniform = [&rng](uint32_t n) {
    return static_cast<uint32_t>(rng() % n);
  };

  InterPartitionIndex index;
  ReferenceIndex model;
  // Ground-truth object placement, shared by both sides; kInvalidPartition
  // marks a dead object. Partition `empty` holds no object, like the
  // heap's reserved copy target.
  std::vector<PartitionId> part(kObjects + 1);
  for (uint64_t o = 1; o <= kObjects; ++o) {
    part[o] = static_cast<PartitionId>(uniform(kPartitions));
  }
  PartitionId empty = kPartitions;
  uint32_t partitions = kPartitions + 1;

  for (uint64_t step = 0; step < kSteps; ++step) {
    switch (uniform(10)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // Add an inter-partition reference between live objects.
        const ObjectId source{1 + uniform(kObjects)};
        const ObjectId target{1 + uniform(kObjects)};
        if (part[source.value] == kInvalidPartition ||
            part[target.value] == kInvalidPartition ||
            part[source.value] == part[target.value]) {
          break;
        }
        const uint32_t slot = uniform(kSlots);
        index.AddReference(source, part[source.value], slot, target,
                           part[target.value]);
        model.AddReference(source, part[source.value], slot, target,
                           part[target.value]);
        break;
      }
      case 4:
      case 5: {  // Remove one recorded reference.
        if (model.entries().empty()) break;
        const ModelEntry e = model.entries()[uniform(
            static_cast<uint32_t>(model.entries().size()))];
        index.RemoveReference(e.source, e.slot, e.target);
        model.RemoveReference(e.source, e.slot, e.target);
        break;
      }
      case 6: {  // Remove a (mostly) bogus reference: both no-op alike.
        const ObjectId source{1 + uniform(kObjects)};
        const ObjectId target{1 + uniform(kObjects)};
        const uint32_t slot = uniform(kSlots);
        index.RemoveReference(source, slot, target);
        model.RemoveReference(source, slot, target);
        break;
      }
      case 7: {  // Evacuate a partition into the empty one.
        const PartitionId victim = static_cast<PartitionId>(uniform(partitions));
        if (victim == empty) break;
        // One evacuation in eight fails part-way: nothing has been
        // dropped yet, and only some residents have moved.
        const bool fails = uniform(8) == 0;
        for (uint64_t o = 1; o <= kObjects; ++o) {
          if (part[o] != victim) continue;
          const ObjectId object{o};
          if (fails) {
            if (uniform(2) == 0) continue;  // Still in the victim.
          } else if (!model.HasExternalReferences(object) &&
                     uniform(3) == 0) {
            // Unreferenced from outside: garbage this time.
            part[o] = kInvalidPartition;
            model.RemoveOutPointersOf(object);
            continue;
          }
          part[o] = empty;
          model.MoveObject(object, empty);
        }
        index.OnPartitionEvacuated(
            victim, empty, [&](ObjectId id) { return part[id.value]; });
        if (fails) {
          // The copy target keeps its copies; a fresh partition is
          // reserved in its place.
          empty = partitions++;
        } else {
          empty = victim;
        }
        break;
      }
      case 8: {  // A dead id returns as a fresh object somewhere.
        const ObjectId object{1 + uniform(kObjects)};
        if (part[object.value] != kInvalidPartition) break;
        const PartitionId p = static_cast<PartitionId>(uniform(partitions));
        if (p != empty) part[object.value] = p;
        break;
      }
      case 9: {  // Wholesale out-pointer retirement (global collection).
        const ObjectId object{1 + uniform(kObjects)};
        index.RemoveOutPointersOf(object, part[object.value]);
        model.RemoveOutPointersOf(object);
        break;
      }
    }
    if (step % 100 == 0 || step + 1 == kSteps) {
      ExpectSameState(index, model, kObjects, partitions, step);
      if (::testing::Test::HasFailure()) return;
    }
  }
  ExpectSameState(index, model, kObjects, partitions, kSteps);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexPropertyTest,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99991u));

}  // namespace
}  // namespace odbgc
