// Precise I/O accounting properties of the copying collector: it reads
// only the pages live objects occupy (garbage-only pages are never
// touched — the mechanism behind "more garbage = cheaper collection"),
// and the per-collection deltas in the log sum to the heap's collector
// I/O total.

#include <gtest/gtest.h>

#include "core/heap.h"

namespace odbgc {
namespace {

HeapOptions ColdHeap() {
  HeapOptions options;
  options.store.page_size = 256;
  options.store.pages_per_partition = 16;  // 4 KB partitions.
  options.buffer_pages = 64;
  options.policy = PolicyKind::kUpdatedPointer;
  options.overwrite_trigger = 0;
  return options;
}

TEST(CollectorIoTest, GarbageOnlyPagesNeverRead) {
  CollectedHeap heap(ColdHeap());
  // Layout in partition 0: one live 256-byte object (page 0), then
  // 2048 bytes of garbage (pages 1..8-ish), nothing else. Page-aligned
  // object sizes make the geometry exact.
  auto live = heap.Allocate(256, 2);  // Page 0.
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(heap.AddRoot(*live).ok());
  for (int i = 0; i < 8; ++i) {
    auto junk = heap.Allocate(256, 0);  // Pages 1..8.
    ASSERT_TRUE(junk.ok());
  }
  auto sentinel = heap.Allocate(100, 0);  // Displace newborn protection.
  ASSERT_TRUE(sentinel.ok());
  ASSERT_TRUE(heap.AddRoot(*sentinel).ok());

  ASSERT_TRUE(heap.mutable_buffer().FlushAll().ok());
  heap.mutable_buffer().DiscardExtent(PageExtent{0, heap.device().num_pages()});

  auto result = heap.CollectPartition(0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->garbage_bytes_reclaimed, 8u * 256u);
  // Reads: the live object's page and the sentinel+live copies' target
  // pages; never the 8 garbage-only pages. Generous bound: under 6 reads
  // (vs 11+ if garbage pages were scanned).
  EXPECT_LE(result->page_reads, 6u);
  EXPECT_GE(result->page_reads, 1u);
}

TEST(CollectorIoTest, AllGarbagePartitionCostsNoPageReads) {
  CollectedHeap heap(ColdHeap());
  // Partition 0 (16 x 256-byte pages) is filled exactly with garbage; the
  // sentinel (rooted) lands in the next allocatable partition. A copying
  // collector reclaims the whole partition by resetting it — without
  // reading a single garbage page.
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(heap.Allocate(256, 0).ok());
  }
  auto sentinel = heap.Allocate(100, 0);
  ASSERT_TRUE(sentinel.ok());
  ASSERT_TRUE(heap.AddRoot(*sentinel).ok());
  const PartitionId sentinel_partition =
      heap.store().Lookup(*sentinel)->partition;

  ASSERT_TRUE(heap.mutable_buffer().FlushAll().ok());
  heap.mutable_buffer().DiscardExtent(PageExtent{0, heap.device().num_pages()});

  // Pick a victim partition that holds only garbage.
  PartitionId victim = kInvalidPartition;
  for (PartitionId p : heap.CollectionCandidates()) {
    if (p != sentinel_partition) {
      victim = p;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidPartition);
  auto result = heap.CollectPartition(victim);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->garbage_bytes_reclaimed, 0u);
  EXPECT_EQ(result->live_objects_copied, 0u);
  EXPECT_EQ(result->page_reads, 0u)
      << "reclaiming pure garbage must not read its pages";
  EXPECT_EQ(result->page_writes, 0u);
}

TEST(CollectorIoTest, CollectionLogDeltasSumToGcIo) {
  HeapOptions options = ColdHeap();
  options.overwrite_trigger = 5;
  options.buffer_pages = 8;  // Small buffer: real disk traffic.
  CollectedHeap heap(options);
  auto root = heap.Allocate(100, 3);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(heap.AddRoot(*root).ok());

  // Churn: chains created and cut to force many triggered collections.
  ObjectId chain = *root;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 5; ++i) {
      auto node = heap.Allocate(100, 3, chain);
      ASSERT_TRUE(node.ok());
      ASSERT_TRUE(heap.WriteSlot(chain, 0, *node).ok());
      chain = *node;
    }
    auto cut = heap.ReadSlot(*root, 0);
    ASSERT_TRUE(cut.ok());
    ASSERT_TRUE(heap.WriteSlot(*root, 0, kNullObjectId).ok());
    chain = *root;
  }
  ASSERT_GT(heap.stats().collections, 5u);

  uint64_t log_reads = 0, log_writes = 0;
  for (const CollectionResult& entry : heap.collection_log()) {
    log_reads += entry.page_reads;
    log_writes += entry.page_writes;
  }
  EXPECT_EQ(log_reads, heap.buffer().stats().reads_gc);
  EXPECT_EQ(log_writes, heap.buffer().stats().writes_gc);
  EXPECT_EQ(heap.gc_io(), log_reads + log_writes);
}

TEST(CollectorIoTest, CopyCostTracksLiveBytes) {
  // Two identical partitions except for live fraction: collecting the
  // livelier one must cost more I/O.
  auto measure = [](int live_objects) -> uint64_t {
    CollectedHeap heap(ColdHeap());
    auto root = heap.Allocate(100, 3);
    EXPECT_TRUE(root.ok());
    EXPECT_TRUE(heap.AddRoot(*root).ok());
    ObjectId chain = *root;
    for (int i = 0; i < 12; ++i) {
      auto id = heap.Allocate(256, 3);
      EXPECT_TRUE(id.ok());
      if (i < live_objects) {
        EXPECT_TRUE(heap.WriteSlot(chain, 0, *id).ok());
        chain = *id;
      }
    }
    EXPECT_TRUE(heap.mutable_buffer().FlushAll().ok());
    heap.mutable_buffer().DiscardExtent(
        PageExtent{0, heap.device().num_pages()});
    auto result = heap.CollectPartition(0);
    EXPECT_TRUE(result.ok());
    return result->page_reads + result->page_writes;
  };
  const uint64_t mostly_garbage = measure(2);
  const uint64_t mostly_live = measure(10);
  EXPECT_LT(mostly_garbage, mostly_live);
}

}  // namespace
}  // namespace odbgc
