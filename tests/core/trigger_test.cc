// Tests for the when-to-collect alternatives (TriggerKind).

#include <gtest/gtest.h>

#include "core/heap.h"

namespace odbgc {
namespace {

HeapOptions Base() {
  HeapOptions options;
  options.store.page_size = 256;
  options.store.pages_per_partition = 8;  // 2 KB partitions.
  options.buffer_pages = 16;
  options.policy_name = "Random";
  options.overwrite_trigger = 0;
  return options;
}

TEST(TriggerTest, AllocatedBytesTriggerFires) {
  HeapOptions options = Base();
  options.trigger = TriggerKind::kAllocatedBytes;
  options.allocation_trigger_bytes = 1000;
  CollectedHeap heap(options);
  auto root = heap.Allocate(100, 2);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(heap.AddRoot(*root).ok());
  // 100-byte objects: the 10th allocation crosses 1000 bytes.
  for (int i = 0; i < 9; ++i) ASSERT_TRUE(heap.Allocate(100, 2).ok());
  EXPECT_EQ(heap.stats().collections, 1u);
  // Counter reset: the next collection needs a full 1000 bytes again.
  for (int i = 0; i < 9; ++i) ASSERT_TRUE(heap.Allocate(100, 2).ok());
  EXPECT_EQ(heap.stats().collections, 1u);
  ASSERT_TRUE(heap.Allocate(100, 2).ok());
  EXPECT_EQ(heap.stats().collections, 2u);
}

TEST(TriggerTest, AllocatedBytesZeroDisables) {
  HeapOptions options = Base();
  options.trigger = TriggerKind::kAllocatedBytes;
  options.allocation_trigger_bytes = 0;
  CollectedHeap heap(options);
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(heap.Allocate(100, 2).ok());
  EXPECT_EQ(heap.stats().collections, 0u);
}

TEST(TriggerTest, DatabaseGrowthTriggerFires) {
  HeapOptions options = Base();
  options.trigger = TriggerKind::kDatabaseGrowth;
  CollectedHeap heap(options);
  auto root = heap.Allocate(100, 2);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(heap.AddRoot(*root).ok());
  const size_t initial_partitions = heap.store().partition_count();
  // Fill until the store must grow; the growth should be answered by a
  // collection.
  while (heap.store().partition_count() == initial_partitions) {
    ASSERT_TRUE(heap.Allocate(100, 2).ok());
  }
  EXPECT_GE(heap.stats().collections, 1u);
}

TEST(TriggerTest, OverwriteTriggerIgnoresOtherKinds) {
  // With kAllocatedBytes selected, overwrites alone must never trigger.
  HeapOptions options = Base();
  options.trigger = TriggerKind::kAllocatedBytes;
  options.allocation_trigger_bytes = 1 << 30;
  options.overwrite_trigger = 1;  // Would fire constantly if honoured.
  CollectedHeap heap(options);
  auto root = heap.Allocate(100, 2);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(heap.AddRoot(*root).ok());
  auto a = heap.Allocate(100, 2);
  auto b = heap.Allocate(100, 2);
  ASSERT_TRUE(heap.AddRoot(*a).ok());
  ASSERT_TRUE(heap.AddRoot(*b).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(heap.WriteSlot(*root, 0, i % 2 ? *a : *b).ok());
  }
  EXPECT_EQ(heap.stats().collections, 0u);
}

TEST(TriggerTest, NoCollectionPolicyOverridesAllTriggers) {
  for (TriggerKind kind :
       {TriggerKind::kPointerOverwrites, TriggerKind::kAllocatedBytes,
        TriggerKind::kDatabaseGrowth}) {
    HeapOptions options = Base();
    options.policy_name = "NoCollection";
    options.trigger = kind;
    options.overwrite_trigger = 1;
    options.allocation_trigger_bytes = 100;
    CollectedHeap heap(options);
    for (int i = 0; i < 40; ++i) ASSERT_TRUE(heap.Allocate(100, 2).ok());
    EXPECT_EQ(heap.stats().collections, 0u);
  }
}

}  // namespace
}  // namespace odbgc
