#include "core/remembered_set.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

namespace odbgc {
namespace {

constexpr ObjectId A{1}, B{2}, C{3}, D{4};

std::vector<ObjectId> Ids(std::span<const ObjectId> ids) {
  return {ids.begin(), ids.end()};
}

TEST(InterPartitionIndexTest, AddAndQuery) {
  InterPartitionIndex index;
  index.AddReference(A, /*src_part=*/0, /*slot=*/1, B, /*dst_part=*/2);

  EXPECT_EQ(index.entry_count(), 1u);
  EXPECT_TRUE(index.HasExternalReferences(B));
  EXPECT_FALSE(index.HasExternalReferences(A));

  const auto* entries = index.EntriesForTarget(B);
  ASSERT_NE(entries, nullptr);
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].source, A);
  EXPECT_EQ((*entries)[0].slot, 1u);

  EXPECT_EQ(Ids(index.ExternalTargets(2)),
            (std::vector<ObjectId>{B}));
  EXPECT_TRUE(Ids(index.ExternalTargets(0)).empty());
  EXPECT_EQ(Ids(index.Sources(0)), (std::vector<ObjectId>{A}));

  const auto* outs = index.OutPointersOfSource(A);
  ASSERT_NE(outs, nullptr);
  EXPECT_EQ((*outs)[0], (std::pair<uint32_t, ObjectId>{1, B}));
}

TEST(InterPartitionIndexTest, RemoveReference) {
  InterPartitionIndex index;
  index.AddReference(A, 0, 0, B, 1);
  index.AddReference(C, 2, 0, B, 1);
  index.RemoveReference(A, 0, B);

  EXPECT_EQ(index.entry_count(), 1u);
  EXPECT_TRUE(index.HasExternalReferences(B));
  EXPECT_EQ(index.OutPointersOfSource(A), nullptr);
  EXPECT_TRUE(Ids(index.Sources(0)).empty());

  index.RemoveReference(C, 0, B);
  EXPECT_EQ(index.entry_count(), 0u);
  EXPECT_FALSE(index.HasExternalReferences(B));
  EXPECT_TRUE(Ids(index.ExternalTargets(1)).empty());
}

TEST(InterPartitionIndexTest, RemoveMissingIsNoop) {
  InterPartitionIndex index;
  index.AddReference(A, 0, 0, B, 1);
  index.RemoveReference(A, 1, B);  // Wrong slot.
  index.RemoveReference(C, 0, B);  // Wrong source.
  index.RemoveReference(A, 0, C);  // Wrong target.
  EXPECT_EQ(index.entry_count(), 1u);
}

TEST(InterPartitionIndexTest, MultipleSlotsSameEdge) {
  InterPartitionIndex index;
  index.AddReference(A, 0, 0, B, 1);
  index.AddReference(A, 0, 1, B, 1);
  EXPECT_EQ(index.entry_count(), 2u);
  index.RemoveReference(A, 0, B);
  EXPECT_EQ(index.entry_count(), 1u);
  EXPECT_TRUE(index.HasExternalReferences(B));
  const auto* outs = index.OutPointersOfSource(A);
  ASSERT_NE(outs, nullptr);
  EXPECT_EQ(outs->size(), 1u);
}

TEST(InterPartitionIndexTest, TargetsSortedById) {
  InterPartitionIndex index;
  index.AddReference(A, 0, 0, D, 1);
  index.AddReference(A, 0, 1, B, 1);
  index.AddReference(C, 2, 0, B, 1);
  EXPECT_EQ(Ids(index.ExternalTargets(1)),
            (std::vector<ObjectId>{B, D}));
}

TEST(InterPartitionIndexTest, ObjectMovedRebuckets) {
  InterPartitionIndex index;
  index.AddReference(A, 0, 0, B, 1);  // B is a target in partition 1.
  index.AddReference(B, 1, 0, C, 2);  // B is a source in partition 1.

  // Partition 1 is evacuated into the empty partition 3.
  index.OnPartitionEvacuated(/*victim=*/1, /*target=*/3,
                             [](ObjectId) -> PartitionId { return 3; });
  EXPECT_TRUE(Ids(index.ExternalTargets(1)).empty());
  EXPECT_EQ(Ids(index.ExternalTargets(3)),
            (std::vector<ObjectId>{B}));
  EXPECT_TRUE(Ids(index.Sources(1)).empty());
  EXPECT_EQ(Ids(index.Sources(3)), (std::vector<ObjectId>{B}));
  // Entries themselves survive the move (ObjectIds are stable).
  EXPECT_TRUE(index.HasExternalReferences(B));
  EXPECT_EQ(index.entry_count(), 2u);
  // The records moved too: removal finds B in partition 3's sets.
  index.RemoveReference(A, 0, B);
  index.RemoveReference(B, 0, C);
  EXPECT_TRUE(Ids(index.ExternalTargets(3)).empty());
  EXPECT_TRUE(Ids(index.Sources(3)).empty());
}

TEST(InterPartitionIndexTest, ObjectDiedRemovesItsOutPointers) {
  InterPartitionIndex index;
  index.AddReference(A, 0, 0, B, 1);  // Dead A points at B.
  index.AddReference(A, 0, 1, C, 2);
  // Partition 0 is evacuated into 3, and A was dropped as garbage.
  index.OnPartitionEvacuated(
      0, 3, [](ObjectId) -> PartitionId { return kInvalidPartition; });

  // Exactly the paper's requirement: B and C must no longer look
  // externally referenced once the garbage holding pointers to them is
  // reclaimed.
  EXPECT_FALSE(index.HasExternalReferences(B));
  EXPECT_FALSE(index.HasExternalReferences(C));
  EXPECT_EQ(index.entry_count(), 0u);
  EXPECT_TRUE(Ids(index.Sources(0)).empty());
  EXPECT_TRUE(Ids(index.Sources(3)).empty());
}

TEST(InterPartitionIndexTest, FailedEvacuationKeepsWhatStayed) {
  InterPartitionIndex index;
  index.AddReference(A, 0, 0, B, 1);  // B and D are targets in 1,
  index.AddReference(C, 2, 0, D, 1);
  index.AddReference(B, 1, 1, C, 2);  // and sources there.
  index.AddReference(D, 1, 1, A, 0);
  // The evacuation of partition 1 into 3 failed after moving B only.
  index.OnPartitionEvacuated(1, 3, [](ObjectId id) -> PartitionId {
    return id == B ? 3 : 1;
  });
  EXPECT_EQ(Ids(index.ExternalTargets(1)), (std::vector<ObjectId>{D}));
  EXPECT_EQ(Ids(index.ExternalTargets(3)), (std::vector<ObjectId>{B}));
  EXPECT_EQ(Ids(index.Sources(1)), (std::vector<ObjectId>{D}));
  EXPECT_EQ(Ids(index.Sources(3)), (std::vector<ObjectId>{B}));
  EXPECT_EQ(index.entry_count(), 4u);
}

TEST(InterPartitionIndexTest, EntryCountForPartition) {
  InterPartitionIndex index;
  index.AddReference(A, 0, 0, B, 1);
  index.AddReference(C, 2, 0, B, 1);
  index.AddReference(C, 2, 1, D, 1);
  EXPECT_EQ(index.EntryCountForPartition(1), 3u);
  EXPECT_EQ(index.EntryCountForPartition(0), 0u);
}

}  // namespace
}  // namespace odbgc
