#include "core/heap.h"

#include <gtest/gtest.h>

namespace odbgc {
namespace {

HeapOptions SmallHeap(PolicyKind policy, uint32_t trigger) {
  HeapOptions options;
  options.store.page_size = 256;
  options.store.pages_per_partition = 8;
  options.buffer_pages = 16;
  options.policy_name = PolicyName(policy);
  options.overwrite_trigger = trigger;
  return options;
}

TEST(HeapTest, TriggerFiresAfterConfiguredOverwrites) {
  CollectedHeap heap(SmallHeap(PolicyKind::kUpdatedPointer, 3));
  auto root = heap.Allocate(100, 2);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(heap.AddRoot(*root).ok());
  auto a = heap.Allocate(100, 2, *root);
  auto b = heap.Allocate(100, 2, *root);
  ASSERT_TRUE(a.ok() && b.ok());

  // Initializing stores are not overwrites.
  ASSERT_TRUE(heap.WriteSlot(*root, 0, *a).ok());
  EXPECT_EQ(heap.stats().collections, 0u);

  // Three overwrites fire the trigger.
  ASSERT_TRUE(heap.WriteSlot(*root, 0, *b).ok());
  ASSERT_TRUE(heap.WriteSlot(*root, 0, *a).ok());
  EXPECT_EQ(heap.stats().collections, 0u);
  ASSERT_TRUE(heap.WriteSlot(*root, 0, *b).ok());
  EXPECT_EQ(heap.stats().collections, 1u);
  EXPECT_EQ(heap.stats().pointer_overwrites, 3u);
  EXPECT_EQ(heap.collection_log().size(), 1u);
}

TEST(HeapTest, TriggerRearmsAfterCollection) {
  CollectedHeap heap(SmallHeap(PolicyKind::kUpdatedPointer, 2));
  auto root = heap.Allocate(100, 2);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(heap.AddRoot(*root).ok());
  auto a = heap.Allocate(100, 2, *root);
  auto b = heap.Allocate(100, 2, *root);
  // Keep a and b rooted so the overwritten-away one is never reclaimed.
  ASSERT_TRUE(heap.AddRoot(*a).ok());
  ASSERT_TRUE(heap.AddRoot(*b).ok());
  ASSERT_TRUE(heap.WriteSlot(*root, 0, *a).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(heap.WriteSlot(*root, 0, i % 2 ? *a : *b).ok());
  }
  EXPECT_EQ(heap.stats().collections, 4u);
}

TEST(HeapTest, NoCollectionNeverCollects) {
  CollectedHeap heap(SmallHeap(PolicyKind::kNoCollection, 1));
  auto root = heap.Allocate(100, 2);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(heap.AddRoot(*root).ok());
  auto a = heap.Allocate(100, 2);
  auto b = heap.Allocate(100, 2);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(heap.WriteSlot(*root, 0, i % 2 ? *a : *b).ok());
  }
  EXPECT_EQ(heap.stats().collections, 0u);
  auto result = heap.CollectNow();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(HeapTest, ZeroTriggerMeansManualOnly) {
  CollectedHeap heap(SmallHeap(PolicyKind::kUpdatedPointer, 0));
  auto root = heap.Allocate(100, 2);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(heap.AddRoot(*root).ok());
  auto a = heap.Allocate(100, 2);
  auto b = heap.Allocate(100, 2);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(heap.WriteSlot(*root, 0, i % 2 ? *a : *b).ok());
  }
  EXPECT_EQ(heap.stats().collections, 0u);
  ASSERT_TRUE(heap.CollectNow().ok());
  EXPECT_EQ(heap.stats().collections, 1u);
}

TEST(HeapTest, CandidatesExcludeEmptyAndUnusedPartitions) {
  CollectedHeap heap(SmallHeap(PolicyKind::kUpdatedPointer, 0));
  auto root = heap.Allocate(100, 2);
  ASSERT_TRUE(root.ok());
  const auto candidates = heap.CollectionCandidates();
  for (PartitionId p : candidates) {
    EXPECT_NE(p, heap.store().empty_partition());
    EXPECT_GT(heap.store().partition(p).allocated_bytes(), 0u);
  }
  EXPECT_EQ(candidates.size(), 1u);
}

TEST(HeapTest, StatsAccumulate) {
  CollectedHeap heap(SmallHeap(PolicyKind::kUpdatedPointer, 0));
  auto root = heap.Allocate(100, 2);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(heap.AddRoot(*root).ok());
  auto a = heap.Allocate(100, 2, *root);
  ASSERT_TRUE(heap.WriteSlot(*root, 0, *a).ok());       // Store.
  ASSERT_TRUE(heap.WriteSlot(*root, 0, kNullObjectId).ok());  // Overwrite.

  EXPECT_EQ(heap.stats().objects_allocated, 2u);
  EXPECT_EQ(heap.stats().bytes_allocated, 200u);
  EXPECT_EQ(heap.stats().pointer_stores, 1u);
  EXPECT_EQ(heap.stats().pointer_overwrites, 1u);

  ASSERT_TRUE(heap.CollectNow().ok());
  EXPECT_EQ(heap.stats().collections, 1u);
  EXPECT_EQ(heap.stats().garbage_bytes_reclaimed, 100u);
  EXPECT_EQ(heap.stats().live_bytes_copied, 100u);
}

TEST(HeapTest, MaxStorageHighWaterMark) {
  CollectedHeap heap(SmallHeap(PolicyKind::kNoCollection, 0));
  const uint64_t initial = heap.stats().max_total_bytes;
  EXPECT_EQ(initial, heap.store().total_bytes());
  // Allocate past several partitions.
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(heap.Allocate(100, 2).ok());
  }
  EXPECT_GT(heap.stats().max_total_bytes, initial);
  EXPECT_EQ(heap.stats().max_total_bytes, heap.store().total_bytes());
  EXPECT_EQ(heap.stats().max_partitions, heap.store().partition_count());
}

TEST(HeapTest, WeightsAutoEnabledOnlyForWeightedPointer) {
  CollectedHeap weighted(SmallHeap(PolicyKind::kWeightedPointer, 0));
  EXPECT_NE(weighted.weights(), nullptr);
  CollectedHeap updated(SmallHeap(PolicyKind::kUpdatedPointer, 0));
  EXPECT_EQ(updated.weights(), nullptr);
}

TEST(HeapTest, RootWeightTracked) {
  HeapOptions options = SmallHeap(PolicyKind::kWeightedPointer, 0);
  CollectedHeap heap(options);
  auto root = heap.Allocate(100, 2);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(heap.AddRoot(*root).ok());
  ASSERT_NE(heap.weights(), nullptr);
  EXPECT_EQ(heap.weights()->GetWeight(*root), 1);
  auto child = heap.Allocate(100, 2, *root);
  ASSERT_TRUE(heap.WriteSlot(*root, 0, *child).ok());
  EXPECT_EQ(heap.weights()->GetWeight(*child), 2);
}

TEST(HeapTest, MultiPartitionCollection) {
  HeapOptions options = SmallHeap(PolicyKind::kRandom, 2);
  options.partitions_per_collection = 2;
  CollectedHeap heap(options);
  auto root = heap.Allocate(100, 2);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(heap.AddRoot(*root).ok());
  // Spread allocations over several partitions.
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(heap.Allocate(100, 2).ok());
  auto a = heap.Allocate(100, 2);
  auto b = heap.Allocate(100, 2);
  ASSERT_TRUE(heap.WriteSlot(*root, 0, *a).ok());
  ASSERT_TRUE(heap.WriteSlot(*root, 0, *b).ok());
  ASSERT_TRUE(heap.WriteSlot(*root, 0, *a).ok());
  EXPECT_EQ(heap.stats().collections, 2u)
      << "one trigger collects two partitions";
}

TEST(HeapTest, NewbornSurvivesCollectionUntilLinked) {
  // An object allocated but not yet linked anywhere must survive a
  // collection (allocation-triggered collections fire exactly in that
  // window); once linked and then unlinked, it is ordinary garbage.
  CollectedHeap heap(SmallHeap(PolicyKind::kUpdatedPointer, 0));
  auto root = heap.Allocate(100, 2);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(heap.AddRoot(*root).ok());
  auto fresh = heap.Allocate(100, 2);
  ASSERT_TRUE(fresh.ok());

  ASSERT_TRUE(heap.CollectPartition(0).ok());
  EXPECT_TRUE(heap.store().Exists(*fresh)) << "unlinked newborn reclaimed";

  // Link it (protection ends), cut it, collect: now it dies.
  ASSERT_TRUE(heap.WriteSlot(*root, 0, *fresh).ok());
  ASSERT_TRUE(heap.WriteSlot(*root, 0, kNullObjectId).ok());
  const PartitionId victim = heap.store().Lookup(*fresh)->partition;
  ASSERT_TRUE(heap.CollectPartition(victim).ok());
  EXPECT_FALSE(heap.store().Exists(*fresh));
}

TEST(HeapTest, PolicyFactoryInstallsCustomPolicy) {
  // A policy registered by the application must receive the write-barrier
  // notifications and drive victim selection.
  struct CountingPolicy : SelectionPolicy {
    int stores = 0;
    int selects = 0;
    PolicyKind kind() const override { return PolicyKind::kUpdatedPointer; }
    std::string name() const override { return "HeapTestCounting"; }
    void OnPointerStore(const SlotWriteEvent&, uint8_t) override {
      ++stores;
    }
    PartitionId Select(const SelectionContext& context) override {
      ++selects;
      return context.candidates.empty() ? kInvalidPartition
                                        : context.candidates.front();
    }
  };
  // The heap owns the policy; the factory leaves a view of it here.
  static CountingPolicy* counting = nullptr;
  static const bool registered =
      RegisterPolicy("HeapTestCounting", [](const PolicyContext&) {
        auto policy = std::make_unique<CountingPolicy>();
        counting = policy.get();
        return std::unique_ptr<SelectionPolicy>(std::move(policy));
      }).ok();
  ASSERT_TRUE(registered);
  HeapOptions options = SmallHeap(PolicyKind::kRandom, 2);
  options.policy_name = "HeapTestCounting";
  CollectedHeap heap(options);
  EXPECT_EQ(heap.policy().kind(), PolicyKind::kUpdatedPointer);
  EXPECT_EQ(&heap.policy(), counting);

  auto root = heap.Allocate(100, 2);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(heap.AddRoot(*root).ok());
  auto a = heap.Allocate(100, 2);
  auto b = heap.Allocate(100, 2);
  ASSERT_TRUE(heap.AddRoot(*a).ok());
  ASSERT_TRUE(heap.AddRoot(*b).ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(heap.WriteSlot(*root, 0, i % 2 ? *a : *b).ok());
  }
  EXPECT_EQ(counting->stores, 6);
  EXPECT_GE(counting->selects, 2);
  EXPECT_EQ(heap.stats().collections,
            static_cast<uint64_t>(counting->selects));
}

TEST(HeapTest, CollectPartitionBypassesPolicy) {
  CollectedHeap heap(SmallHeap(PolicyKind::kNoCollection, 0));
  auto root = heap.Allocate(100, 2);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(heap.AddRoot(*root).ok());
  auto result = heap.CollectPartition(0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(heap.stats().collections, 1u);
}

}  // namespace
}  // namespace odbgc
