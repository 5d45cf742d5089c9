#include "core/write_barrier.h"

#include <gtest/gtest.h>

#include "core/heap.h"
#include "core/reachability.h"
#include "sim/config.h"
#include "sim/simulator.h"

namespace odbgc {
namespace {

HeapOptions BarrierHeap(BarrierMode mode) {
  HeapOptions options;
  options.store.page_size = 256;
  options.store.pages_per_partition = 8;
  options.buffer_pages = 32;
  options.policy_name = "UpdatedPointer";
  options.overwrite_trigger = 0;
  options.barrier = mode;
  options.card_size = 128;
  return options;
}

// Creates root (rooted), x, and y with y in a different partition than x,
// fillers kept live under root's slot 2 chain. Returns (x, y).
std::pair<ObjectId, ObjectId> CrossPartitionPair(CollectedHeap& heap) {
  auto root = heap.Allocate(100, 3);
  EXPECT_TRUE(root.ok());
  EXPECT_TRUE(heap.AddRoot(*root).ok());
  ObjectId anchor = *root;
  auto x = heap.Allocate(100, 3);
  EXPECT_TRUE(x.ok());
  const PartitionId part_x = heap.store().Lookup(*x)->partition;
  for (int i = 0; i < 64; ++i) {
    auto o = heap.Allocate(100, 3);
    EXPECT_TRUE(o.ok());
    if (heap.store().Lookup(*o)->partition != part_x) {
      // Displace newborn protection from y so it can become garbage.
      auto sentinel = heap.Allocate(100, 3);
      EXPECT_TRUE(sentinel.ok());
      EXPECT_TRUE(heap.AddRoot(*sentinel).ok());
      return {*x, *o};
    }
    EXPECT_TRUE(heap.WriteSlot(anchor, 2, *o).ok());
    anchor = *o;
  }
  ADD_FAILURE() << "no cross-partition object";
  return {*x, kNullObjectId};
}

TEST(WriteBarrierTest, ModeNames) {
  EXPECT_STREQ(BarrierModeName(BarrierMode::kExact), "exact");
  EXPECT_STREQ(BarrierModeName(BarrierMode::kSequentialStoreBuffer),
               "store-buffer");
  EXPECT_STREQ(BarrierModeName(BarrierMode::kCardMarking), "card-marking");
}

TEST(WriteBarrierTest, ExactModeUpdatesIndexImmediately) {
  CollectedHeap heap(BarrierHeap(BarrierMode::kExact));
  auto [x, y] = CrossPartitionPair(heap);
  ASSERT_TRUE(heap.WriteSlot(y, 0, x).ok());
  EXPECT_TRUE(heap.index().HasExternalReferences(x));
  ASSERT_TRUE(heap.WriteSlot(y, 0, kNullObjectId).ok());
  EXPECT_FALSE(heap.index().HasExternalReferences(x));
}

TEST(WriteBarrierTest, DeferredModesUpdateIndexAtCollection) {
  for (BarrierMode mode : {BarrierMode::kSequentialStoreBuffer,
                           BarrierMode::kCardMarking}) {
    CollectedHeap heap(BarrierHeap(mode));
    auto [x, y] = CrossPartitionPair(heap);
    ASSERT_TRUE(heap.WriteSlot(y, 0, x).ok());
    EXPECT_FALSE(heap.index().HasExternalReferences(x))
        << BarrierModeName(mode) << " must defer index maintenance";
    EXPECT_GT(heap.barrier().pending_work(), 0u);

    // Collecting x's partition must still keep x alive: the barrier
    // catches up before the collector runs.
    const PartitionId victim = heap.store().Lookup(x)->partition;
    ASSERT_TRUE(heap.CollectPartition(victim).ok());
    EXPECT_TRUE(heap.store().Exists(x))
        << BarrierModeName(mode)
        << " lost a remembered-set entry across a collection";
    EXPECT_TRUE(heap.index().HasExternalReferences(x));
  }
}

TEST(WriteBarrierTest, StoreBufferDrainSkipsDeadSources) {
  CollectedHeap heap(BarrierHeap(BarrierMode::kSequentialStoreBuffer));
  auto [x, y] = CrossPartitionPair(heap);
  // y -> x logged; y then becomes garbage and its partition is collected
  // first, so the drain sees a dead source.
  ASSERT_TRUE(heap.WriteSlot(y, 0, x).ok());
  const PartitionId part_y = heap.store().Lookup(y)->partition;
  const PartitionId part_x = heap.store().Lookup(x)->partition;
  ASSERT_TRUE(heap.CollectPartition(part_y).ok());  // Drains: entry y->x.
  ASSERT_TRUE(heap.store().Exists(x));
  // Collect x's partition twice: first keeps x (entry from garbage y —
  // wait, y was live?). y was never rooted: it dies with its partition.
  EXPECT_FALSE(heap.store().Exists(y));
  ASSERT_TRUE(heap.CollectPartition(part_x).ok());
  EXPECT_FALSE(heap.store().Exists(x))
      << "after y died its entry must not survive";
}

TEST(WriteBarrierTest, CardStatsAccumulate) {
  CollectedHeap heap(BarrierHeap(BarrierMode::kCardMarking));
  auto [x, y] = CrossPartitionPair(heap);
  ASSERT_TRUE(heap.WriteSlot(y, 0, x).ok());
  EXPECT_GT(heap.barrier().stats().cards_marked, 0u);
  ASSERT_TRUE(heap.CollectPartition(heap.store().Lookup(x)->partition).ok());
  EXPECT_GT(heap.barrier().stats().cards_scanned, 0u);
  // The card holding y's cross-partition pointer stays dirty.
  EXPECT_GT(heap.barrier().stats().cards_left_dirty, 0u);
}

// All three barrier modes must reclaim exactly the same garbage on the
// same trace (they differ only in *when* the index is brought up to date
// and what I/O that costs).
class BarrierEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BarrierEquivalenceTest, SameReclamationDifferentCost) {
  const uint64_t seed = GetParam();
  SimulationConfig base;
  base.heap.store.page_size = 1024;
  base.heap.store.pages_per_partition = 16;
  base.heap.buffer_pages = 16;
  base.heap.overwrite_trigger = 30;
  base.heap.card_size = 256;
  base.seed = seed;
  base.workload.target_live_bytes = 96ull << 10;
  base.workload.total_alloc_bytes = 240ull << 10;
  base.workload.tree_nodes_min = 60;
  base.workload.tree_nodes_max = 200;
  base.workload.large_object_size = 4096;

  SimulationResult results[3];
  int i = 0;
  for (BarrierMode mode :
       {BarrierMode::kExact, BarrierMode::kSequentialStoreBuffer,
        BarrierMode::kCardMarking}) {
    SimulationConfig config = base;
    config.heap.barrier = mode;
    Simulator simulator(config);
    ASSERT_TRUE(simulator.Run().ok()) << BarrierModeName(mode);
    results[i++] = simulator.Finish();
  }

  for (int m = 1; m < 3; ++m) {
    EXPECT_EQ(results[m].garbage_reclaimed_bytes,
              results[0].garbage_reclaimed_bytes)
        << "mode " << m << " reclaimed differently";
    EXPECT_EQ(results[m].final_live_bytes, results[0].final_live_bytes);
    EXPECT_EQ(results[m].collections, results[0].collections);
  }
  // Deferred modes pay catch-up I/O at collection time.
  EXPECT_GE(results[1].gc_io, results[0].gc_io);
  EXPECT_GE(results[2].gc_io, results[0].gc_io);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BarrierEquivalenceTest,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace odbgc
