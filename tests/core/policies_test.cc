#include "core/policies.h"

#include <gtest/gtest.h>

#include "core/weights.h"

namespace odbgc {
namespace {

SlotWriteEvent MakeStore(PartitionId source_partition, ObjectId new_target,
                         PartitionId new_partition) {
  SlotWriteEvent e;
  e.source = ObjectId{100};
  e.source_partition = source_partition;
  e.new_target = new_target;
  e.new_target_partition = new_partition;
  return e;
}

SlotWriteEvent MakeOverwrite(PartitionId source_partition,
                             ObjectId old_target,
                             PartitionId old_partition,
                             ObjectId new_target = kNullObjectId,
                             PartitionId new_partition = kInvalidPartition) {
  SlotWriteEvent e = MakeStore(source_partition, new_target, new_partition);
  e.old_target = old_target;
  e.old_target_partition = old_partition;
  return e;
}

SelectionContext Candidates(std::vector<PartitionId> parts) {
  SelectionContext context;
  context.candidates = std::move(parts);
  return context;
}

// A kind's name builds, through the registry, a policy of that kind.
TEST(PolicyNamesTest, RoundtripAllKinds) {
  for (PolicyKind kind : AllPolicyKinds()) {
    auto policy = MakePolicy(std::string(PolicyName(kind)), 1);
    ASSERT_TRUE(policy.ok());
    EXPECT_EQ((*policy)->kind(), kind);
  }
  EXPECT_FALSE(IsPolicyRegistered("NotAPolicy"));
  EXPECT_EQ(AllPolicyKinds().size(), 6u);
}

TEST(PolicyFactoryTest, MakesEveryKind) {
  for (PolicyKind kind : AllPolicyKinds()) {
    auto policy = MakePolicy(kind, 1);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->kind(), kind);
  }
}

TEST(MutatedPartitionTest, CountsStoresIntoSourcePartition) {
  MutatedPartitionPolicy policy;
  // Two pointer stores into partition 0, one into partition 1.
  policy.OnPointerStore(MakeStore(0, ObjectId{1}, 2), 16);
  policy.OnPointerStore(MakeStore(0, ObjectId{2}, 2), 16);
  policy.OnPointerStore(MakeStore(1, ObjectId{3}, 2), 16);
  EXPECT_EQ(policy.Select(Candidates({0, 1, 2})), 0u);
  EXPECT_DOUBLE_EQ(policy.Score(0), 2.0);
  EXPECT_DOUBLE_EQ(policy.Score(2), 0.0);
}

TEST(MutatedPartitionTest, IgnoresNullStores) {
  MutatedPartitionPolicy policy;
  policy.OnPointerStore(MakeOverwrite(0, ObjectId{1}, 2), 16);  // Write null.
  EXPECT_DOUBLE_EQ(policy.Score(0), 0.0);
}

TEST(MutatedPartitionTest, CountsCreationStores) {
  // The policy's documented weakness: it cannot tell initializing stores
  // from overwrites.
  MutatedPartitionPolicy policy;
  policy.OnPointerStore(MakeStore(3, ObjectId{1}, 3), 16);
  EXPECT_DOUBLE_EQ(policy.Score(3), 1.0);
}

TEST(MutatedPartitionTest, ResetOnCollection) {
  MutatedPartitionPolicy policy;
  policy.OnPointerStore(MakeStore(0, ObjectId{1}, 2), 16);
  policy.OnPartitionCollected(0);
  EXPECT_DOUBLE_EQ(policy.Score(0), 0.0);
}

TEST(UpdatedPointerTest, CountsOverwritesByOldTargetPartition) {
  UpdatedPointerPolicy policy;
  policy.OnPointerStore(MakeOverwrite(0, ObjectId{1}, 5), 16);
  policy.OnPointerStore(MakeOverwrite(1, ObjectId{2}, 5), 16);
  policy.OnPointerStore(MakeOverwrite(2, ObjectId{3}, 4), 16);
  EXPECT_EQ(policy.Select(Candidates({4, 5})), 5u);
  EXPECT_DOUBLE_EQ(policy.Score(5), 2.0);
  EXPECT_DOUBLE_EQ(policy.Score(4), 1.0);
}

TEST(UpdatedPointerTest, IgnoresInitializingStores) {
  UpdatedPointerPolicy policy;
  policy.OnPointerStore(MakeStore(0, ObjectId{1}, 5), 16);
  EXPECT_DOUBLE_EQ(policy.Score(5), 0.0);
  EXPECT_DOUBLE_EQ(policy.Score(0), 0.0);
}

TEST(UpdatedPointerTest, ResetOnCollection) {
  UpdatedPointerPolicy policy;
  policy.OnPointerStore(MakeOverwrite(0, ObjectId{1}, 5), 16);
  policy.OnPartitionCollected(5);
  EXPECT_DOUBLE_EQ(policy.Score(5), 0.0);
}

TEST(WeightedPointerTest, WeightsByExponentialDistance) {
  WeightedPointerPolicy policy;
  // Overwrite of a weight-2 pointer into partition 5 (paper's example:
  // 2^(16-2) = 16384) and of a weight-16 pointer into partition 4.
  policy.OnPointerStore(MakeOverwrite(0, ObjectId{1}, 5), 2);
  policy.OnPointerStore(MakeOverwrite(0, ObjectId{2}, 4), 16);
  EXPECT_DOUBLE_EQ(policy.Score(5), 16384.0);
  EXPECT_DOUBLE_EQ(policy.Score(4), 1.0);
  EXPECT_EQ(policy.Select(Candidates({4, 5})), 5u);
}

TEST(WeightedPointerTest, ManyLeafOverwritesCanBeatOneMidEdge) {
  WeightedPointerPolicy policy;
  policy.OnPointerStore(MakeOverwrite(0, ObjectId{1}, 7), 10);  // 2^6 = 64.
  for (int i = 0; i < 100; ++i) {
    policy.OnPointerStore(MakeOverwrite(0, ObjectId{2}, 8), 16);  // 1 each.
  }
  EXPECT_EQ(policy.Select(Candidates({7, 8})), 8u);
}

TEST(RandomPolicyTest, DeterministicPerSeedAndInRange) {
  RandomPolicy a(99), b(99);
  const SelectionContext context = Candidates({3, 5, 9});
  for (int i = 0; i < 50; ++i) {
    const PartitionId pa = a.Select(context);
    EXPECT_EQ(pa, b.Select(context));
    EXPECT_TRUE(pa == 3 || pa == 5 || pa == 9);
  }
}

TEST(RandomPolicyTest, EmptyCandidatesDecline) {
  RandomPolicy policy(1);
  EXPECT_EQ(policy.Select(Candidates({})), kInvalidPartition);
}

TEST(MostGarbageTest, PicksLargestGarbage) {
  MostGarbagePolicy policy;
  SelectionContext context = Candidates({0, 1, 2});
  context.garbage_bytes_per_partition = {100, 900, 300};
  EXPECT_EQ(policy.Select(context), 1u);
}

TEST(MostGarbageTest, TieBreaksToLowestId) {
  MostGarbagePolicy policy;
  SelectionContext context = Candidates({0, 1, 2});
  context.garbage_bytes_per_partition = {300, 300, 300};
  EXPECT_EQ(policy.Select(context), 0u);
}

TEST(MostGarbageTest, MissingCensusTreatedAsZero) {
  MostGarbagePolicy policy;
  SelectionContext context = Candidates({5, 6});
  context.garbage_bytes_per_partition = {1, 2, 3};  // Shorter than ids.
  EXPECT_EQ(policy.Select(context), 5u);
}

TEST(NoCollectionTest, AlwaysDeclines) {
  NoCollectionPolicy policy;
  EXPECT_EQ(policy.Select(Candidates({0, 1})), kInvalidPartition);
}

}  // namespace
}  // namespace odbgc
