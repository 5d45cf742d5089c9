#include "core/global_collector.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/heap.h"
#include "core/reachability.h"

namespace odbgc {
namespace {

HeapOptions SmallHeap() {
  HeapOptions options;
  options.store.page_size = 256;
  options.store.pages_per_partition = 8;
  options.buffer_pages = 16;
  options.policy = PolicyKind::kUpdatedPointer;
  options.overwrite_trigger = 0;  // Manual collections only.
  return options;
}

// Allocates an object in a partition different from `avoid`, keeping the
// fillers alive under `anchor` (slot 2 chain).
ObjectId AllocElsewhere(CollectedHeap& heap, PartitionId avoid,
                        ObjectId* anchor) {
  for (int i = 0; i < 64; ++i) {
    auto id = heap.Allocate(100, 3);
    EXPECT_TRUE(id.ok());
    if (heap.store().Lookup(*id)->partition != avoid) return *id;
    EXPECT_TRUE(heap.WriteSlot(*anchor, 2, *id).ok());
    *anchor = *id;
  }
  ADD_FAILURE() << "could not escape partition " << avoid;
  return kNullObjectId;
}

TEST(GlobalCollectorTest, ReclaimsCrossPartitionDeadCycle) {
  CollectedHeap heap(SmallHeap());
  auto root = heap.Allocate(100, 3);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(heap.AddRoot(*root).ok());
  ObjectId anchor = *root;

  // Build x (A) <-> y (B), then cut the rooted edge to x.
  auto x = heap.Allocate(100, 3);
  ASSERT_TRUE(x.ok());
  const PartitionId part_a = heap.store().Lookup(*x)->partition;
  const ObjectId y = AllocElsewhere(heap, part_a, &anchor);
  ASSERT_TRUE(heap.WriteSlot(*x, 0, y).ok());
  ASSERT_TRUE(heap.WriteSlot(y, 0, *x).ok());
  ASSERT_TRUE(heap.WriteSlot(*root, 0, *x).ok());
  ASSERT_TRUE(heap.WriteSlot(*root, 0, kNullObjectId).ok());

  // Partition-local collection can never reclaim the cycle: collect every
  // candidate twice and confirm both survive.
  for (int round = 0; round < 2; ++round) {
    for (PartitionId p : heap.CollectionCandidates()) {
      ASSERT_TRUE(heap.CollectPartition(p).ok());
    }
  }
  EXPECT_TRUE(heap.store().Exists(*x));
  EXPECT_TRUE(heap.store().Exists(y));

  // The global pass reclaims it.
  auto result = heap.CollectFullDatabase();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(heap.store().Exists(*x));
  EXPECT_FALSE(heap.store().Exists(y));
  EXPECT_GE(result->garbage_objects_reclaimed, 2u);
  EXPECT_EQ(heap.stats().full_collections, 1u);
  EXPECT_EQ(ComputeGarbageCensus(heap.store()).total_garbage_bytes, 0u);
}

TEST(GlobalCollectorTest, ReclaimsNepotismVictimsInOnePass) {
  CollectedHeap heap(SmallHeap());
  auto root = heap.Allocate(100, 3);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(heap.AddRoot(*root).ok());
  ObjectId anchor = *root;

  // Dead y (B) -> dead x (A): a single-partition collection of A keeps x.
  auto x = heap.Allocate(100, 3);
  ASSERT_TRUE(x.ok());
  const PartitionId part_a = heap.store().Lookup(*x)->partition;
  const ObjectId y = AllocElsewhere(heap, part_a, &anchor);
  ASSERT_TRUE(heap.WriteSlot(y, 0, *x).ok());
  // Displace newborn protection from y (it must be collectable garbage).
  auto sentinel = heap.Allocate(100, 3);
  ASSERT_TRUE(sentinel.ok());
  ASSERT_TRUE(heap.AddRoot(*sentinel).ok());

  auto result = heap.CollectFullDatabase();
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(heap.store().Exists(*x));
  EXPECT_FALSE(heap.store().Exists(y));
  EXPECT_TRUE(heap.store().Exists(*root));
}

TEST(GlobalCollectorTest, PreservesLiveGraphAndCompacts) {
  CollectedHeap heap(SmallHeap());
  auto root = heap.Allocate(100, 3);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(heap.AddRoot(*root).ok());
  // A rooted chain across partitions plus interleaved garbage.
  ObjectId prev = *root;
  for (int i = 0; i < 60; ++i) {
    auto keep = heap.Allocate(100, 3, prev);
    auto junk = heap.Allocate(100, 3, prev);
    ASSERT_TRUE(keep.ok() && junk.ok());
    ASSERT_TRUE(heap.WriteSlot(prev, 0, *keep).ok());
    prev = *keep;
  }
  // Displace newborn protection from the last junk object.
  auto sentinel = heap.Allocate(100, 3);
  ASSERT_TRUE(sentinel.ok());
  ASSERT_TRUE(heap.AddRoot(*sentinel).ok());
  const uint64_t live_before =
      ComputeGarbageCensus(heap.store()).total_live_bytes;

  auto result = heap.CollectFullDatabase();
  ASSERT_TRUE(result.ok());
  const GarbageCensus after = ComputeGarbageCensus(heap.store());
  EXPECT_EQ(after.total_live_bytes, live_before);
  EXPECT_EQ(after.total_garbage_bytes, 0u);
  EXPECT_EQ(result->garbage_objects_reclaimed, 60u);
  EXPECT_EQ(result->live_objects_copied, 62u);  // Root + 60 keeps + sentinel.

  // Chain still intact.
  ObjectId cursor = *root;
  int length = 0;
  while (true) {
    auto next = heap.ReadSlot(cursor, 0);
    ASSERT_TRUE(next.ok());
    if (next->is_null()) break;
    cursor = *next;
    ++length;
  }
  EXPECT_EQ(length, 60);

  // The heap invariants survive: one reserved empty partition.
  const PartitionId empty = heap.store().empty_partition();
  EXPECT_EQ(heap.store().partition(empty).object_count(), 0u);
}

TEST(GlobalCollectorTest, ChargesCollectorIo) {
  CollectedHeap heap(SmallHeap());
  auto root = heap.Allocate(100, 3);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(heap.AddRoot(*root).ok());
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(heap.Allocate(100, 3).ok());
  ASSERT_TRUE(heap.mutable_buffer().FlushAll().ok());

  const uint64_t gc_before = heap.gc_io();
  auto result = heap.CollectFullDatabase();
  ASSERT_TRUE(result.ok());
  EXPECT_GT(heap.gc_io(), gc_before);
  EXPECT_EQ(result->page_reads + result->page_writes,
            heap.gc_io() - gc_before);
}

// Marking reads are charged in roster order (partition id, then offset),
// so a full collection's I/O is a function of the store alone. Pinned on a
// database many times the buffer's size, with the live chain linked
// newest-first, where the visit order decides which reads miss.
TEST(GlobalCollectorTest, FullCollectionIoIsPinned) {
  HeapOptions options = SmallHeap();
  options.buffer_pages = 4;
  CollectedHeap heap(options);
  auto root = heap.Allocate(100, 3);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(heap.AddRoot(*root).ok());
  std::vector<ObjectId> keeps;
  for (int i = 0; i < 80; ++i) {
    auto keep = heap.Allocate(100, 3);
    auto junk = heap.Allocate(100, 3);
    ASSERT_TRUE(keep.ok() && junk.ok());
    keeps.push_back(*keep);
  }
  ObjectId prev = *root;
  for (auto it = keeps.rbegin(); it != keeps.rend(); ++it) {
    ASSERT_TRUE(heap.WriteSlot(prev, 0, *it).ok());
    prev = *it;
  }
  // Displace newborn protection from the last junk object.
  auto sentinel = heap.Allocate(100, 3);
  ASSERT_TRUE(sentinel.ok());
  ASSERT_TRUE(heap.AddRoot(*sentinel).ok());
  ASSERT_TRUE(heap.mutable_buffer().FlushAll().ok());

  auto result = heap.CollectFullDatabase();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->live_objects_copied, 82u);  // Root + 80 keeps + sentinel.
  EXPECT_EQ(result->garbage_objects_reclaimed, 80u);
  EXPECT_EQ(result->page_reads, 162u);
  EXPECT_EQ(result->page_writes, 31u);
}

TEST(GlobalCollectorTest, PeriodicFullCollectionViaOption) {
  HeapOptions options = SmallHeap();
  options.overwrite_trigger = 4;
  options.full_collection_interval = 2;  // Full GC after every 2nd normal.
  CollectedHeap heap(options);
  auto root = heap.Allocate(100, 3);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(heap.AddRoot(*root).ok());
  auto a = heap.Allocate(100, 3);
  auto b = heap.Allocate(100, 3);
  ASSERT_TRUE(heap.AddRoot(*a).ok());
  ASSERT_TRUE(heap.AddRoot(*b).ok());
  ASSERT_TRUE(heap.WriteSlot(*root, 0, *a).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(heap.WriteSlot(*root, 0, i % 2 ? *a : *b).ok());
  }
  EXPECT_GE(heap.stats().collections, 4u);
  EXPECT_EQ(heap.stats().full_collections, heap.stats().collections / 2);
}

TEST(GlobalCollectorTest, EmptyHeapIsFine) {
  CollectedHeap heap(SmallHeap());
  auto result = heap.CollectFullDatabase();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->garbage_objects_reclaimed, 0u);
  EXPECT_EQ(result->live_objects_copied, 0u);
}

}  // namespace
}  // namespace odbgc
