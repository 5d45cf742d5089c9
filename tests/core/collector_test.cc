#include "core/copying_collector.h"
#include "storage/disk.h"

#include <memory>

#include <gtest/gtest.h>

#include "core/remembered_set.h"

namespace odbgc {
namespace {

// A hand-wired harness around the collector: a small store, the
// inter-partition index maintained through a write barrier identical to
// the heap's, and direct control over what gets collected.
class CollectorTest : public ::testing::Test, private SlotWriteObserver {
 protected:
  CollectorTest() {
    StoreOptions options;
    options.page_size = 256;
    options.pages_per_partition = 8;  // 2 KB partitions.
    disk_ = std::make_unique<SimulatedDisk>(options.page_size);
    buffer_ = std::make_unique<BufferPool>(disk_.get(), 64);
    store_ = std::make_unique<ObjectStore>(options, disk_.get(),
                                           buffer_.get());
    store_->set_slot_write_observer(this);
    collector_ = std::make_unique<CopyingCollector>(
        store_.get(), buffer_.get(), &index_, nullptr);
  }
  ~CollectorTest() override { store_->set_slot_write_observer(nullptr); }

  void OnSlotWrite(const SlotWriteEvent& e) override {
    if (e.is_overwrite() && e.old_target_partition != kInvalidPartition &&
        e.old_target_partition != e.source_partition) {
      index_.RemoveReference(e.source, e.slot, e.old_target);
    }
    if (!e.new_target.is_null() &&
        e.new_target_partition != e.source_partition) {
      index_.AddReference(e.source, e.source_partition, e.slot,
                          e.new_target, e.new_target_partition);
    }
  }

  // Allocates an object of `size` bytes pinned to partition `p` by
  // filling through a parent hint chain (first object per partition is
  // placed via hint-less allocation into the current partition).
  ObjectId Alloc(uint32_t size = 100, ObjectId parent = kNullObjectId) {
    auto id = store_->Allocate(size, 3, parent);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return *id;
  }

  void Link(ObjectId from, uint32_t slot, ObjectId to) {
    ASSERT_TRUE(store_->WriteSlot(from, slot, to).ok());
  }

  PartitionId PartOf(ObjectId id) { return store_->Lookup(id)->partition; }

  std::unique_ptr<SimulatedDisk> disk_;
  std::unique_ptr<BufferPool> buffer_;
  std::unique_ptr<ObjectStore> store_;
  InterPartitionIndex index_;
  std::unique_ptr<CopyingCollector> collector_;
};

TEST_F(CollectorTest, ReclaimsUnreachableKeepsRooted) {
  const ObjectId root = Alloc();
  const ObjectId child = Alloc(100, root);
  const ObjectId garbage = Alloc(100, root);
  ASSERT_TRUE(store_->AddRoot(root).ok());
  Link(root, 0, child);

  const PartitionId victim = PartOf(root);
  auto result = collector_->Collect(victim);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->live_objects_copied, 2u);
  EXPECT_EQ(result->garbage_objects_reclaimed, 1u);
  EXPECT_EQ(result->garbage_bytes_reclaimed, 100u);
  EXPECT_TRUE(store_->Exists(root));
  EXPECT_TRUE(store_->Exists(child));
  EXPECT_FALSE(store_->Exists(garbage));
  // Survivors moved to the former empty partition; pointer still intact.
  EXPECT_NE(PartOf(root), victim);
  auto v = store_->ReadSlot(root, 0);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, child);
}

TEST_F(CollectorTest, VictimBecomesEmptyPartition) {
  const ObjectId root = Alloc();
  ASSERT_TRUE(store_->AddRoot(root).ok());
  const PartitionId victim = PartOf(root);
  const PartitionId old_empty = store_->empty_partition();
  auto result = collector_->Collect(victim);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(store_->empty_partition(), victim);
  EXPECT_EQ(result->copy_target, old_empty);
  EXPECT_EQ(store_->partition(victim).allocated_bytes(), 0u);
  EXPECT_EQ(store_->partition(victim).object_count(), 0u);
}

TEST_F(CollectorTest, CompactionEliminatesFragmentation) {
  // root -> a -> b with garbage interleaved between them physically.
  const ObjectId root = Alloc(100);
  const ObjectId g1 = Alloc(300, root);
  const ObjectId a = Alloc(100, root);
  const ObjectId g2 = Alloc(300, root);
  const ObjectId b = Alloc(100, root);
  (void)g1;
  (void)g2;
  ASSERT_TRUE(store_->AddRoot(root).ok());
  Link(root, 0, a);
  Link(a, 0, b);

  const PartitionId victim = PartOf(root);
  ASSERT_EQ(store_->partition(victim).allocated_bytes(), 900u);
  auto result = collector_->Collect(victim);
  ASSERT_TRUE(result.ok());
  // The copy target holds exactly the live 300 bytes, contiguously.
  const PartitionId target = result->copy_target;
  EXPECT_EQ(store_->partition(target).allocated_bytes(), 300u);
  EXPECT_EQ(store_->partition(target).object_count(), 3u);
}

TEST_F(CollectorTest, BreadthFirstCopyOrder) {
  //       root
  //      /    \_
  //     a      b
  //    /
  //   c
  // BFS copy order: root, a, b, c — check physical offsets in the target.
  const ObjectId root = Alloc();
  const ObjectId a = Alloc(100, root);
  const ObjectId b = Alloc(100, root);
  const ObjectId c = Alloc(100, root);
  ASSERT_TRUE(store_->AddRoot(root).ok());
  Link(root, 0, a);
  Link(root, 1, b);
  Link(a, 0, c);

  auto result = collector_->Collect(PartOf(root));
  ASSERT_TRUE(result.ok());
  std::vector<ObjectId> physical_order;
  for (const auto& [offset, id] :
       store_->partition(result->copy_target).objects_by_offset()) {
    physical_order.push_back(id);
  }
  EXPECT_EQ(physical_order, (std::vector<ObjectId>{root, a, b, c}));
}

TEST_F(CollectorTest, DepthFirstCopyOrderDiffers) {
  CopyingCollector dfs(store_.get(), buffer_.get(), &index_, nullptr,
                       TraversalOrder::kDepthFirst);
  const ObjectId root = Alloc();
  const ObjectId a = Alloc(100, root);
  const ObjectId b = Alloc(100, root);
  const ObjectId c = Alloc(100, root);
  ASSERT_TRUE(store_->AddRoot(root).ok());
  Link(root, 0, a);
  Link(root, 1, b);
  Link(a, 0, c);

  auto result = dfs.Collect(PartOf(root));
  ASSERT_TRUE(result.ok());
  std::vector<ObjectId> physical_order;
  for (const auto& [offset, id] :
       store_->partition(result->copy_target).objects_by_offset()) {
    physical_order.push_back(id);
  }
  // Depth-first: root, then a's subtree (c), then b.
  EXPECT_EQ(physical_order, (std::vector<ObjectId>{root, a, c, b}));
}

TEST_F(CollectorTest, RememberedSetEntryActsAsRoot) {
  // External referent: x (partition of root) <- y in another partition.
  // x is unreachable from the database roots, but the remembered-set
  // entry must conservatively keep it (nepotism when y is garbage).
  const ObjectId root = Alloc();
  const ObjectId x = Alloc(100, root);
  ASSERT_TRUE(store_->AddRoot(root).ok());

  // Force y into a different partition by filling the first one.
  ObjectId y = kNullObjectId;
  for (int i = 0; i < 40; ++i) {
    const ObjectId o = Alloc(100);
    if (PartOf(o) != PartOf(x)) {
      y = o;
      break;
    }
  }
  ASSERT_FALSE(y.is_null()) << "need an object in another partition";
  Link(y, 0, x);
  ASSERT_TRUE(index_.HasExternalReferences(x));

  auto result = collector_->Collect(PartOf(x));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(store_->Exists(x)) << "externally referenced objects survive";
  // The entry re-bucketed to x's new partition.
  EXPECT_TRUE(index_.HasExternalReferences(x));
  const auto targets = index_.ExternalTargets(PartOf(x));
  EXPECT_EQ(std::vector<ObjectId>(targets.begin(), targets.end()),
            (std::vector<ObjectId>{x}));
}

TEST_F(CollectorTest, DeadSourceEntriesRemovedEnablingLaterReclaim) {
  // y (partition B, garbage) -> x (partition A, garbage).
  // Collecting A first keeps x (nepotism); collecting B kills y and its
  // entry; then collecting A again reclaims x — the exact scenario the
  // out-of-partition sets exist for.
  const ObjectId root = Alloc();
  const ObjectId x = Alloc(100, root);
  ASSERT_TRUE(store_->AddRoot(root).ok());
  ObjectId y = kNullObjectId;
  for (int i = 0; i < 40; ++i) {
    const ObjectId o = Alloc(100);
    if (PartOf(o) != PartOf(x)) {
      y = o;
      break;
    }
  }
  ASSERT_FALSE(y.is_null());
  Link(y, 0, x);
  const PartitionId part_a = PartOf(x);
  const PartitionId part_b = PartOf(y);

  auto first = collector_->Collect(part_a);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(store_->Exists(x)) << "kept alive by garbage y (nepotism)";

  auto second = collector_->Collect(part_b);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(store_->Exists(y));
  EXPECT_FALSE(index_.HasExternalReferences(x))
      << "dead y's entries must be removed";

  auto third = collector_->Collect(PartOf(x));
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(store_->Exists(x)) << "now reclaimable";
}

TEST_F(CollectorTest, PointersLeavingPartitionNotTraversed) {
  // root (A) -> z (B). Collecting A must not copy z.
  const ObjectId root = Alloc();
  ASSERT_TRUE(store_->AddRoot(root).ok());
  ObjectId z = kNullObjectId;
  for (int i = 0; i < 40; ++i) {
    const ObjectId o = Alloc(100);
    if (PartOf(o) != PartOf(root)) {
      z = o;
      break;
    }
  }
  ASSERT_FALSE(z.is_null());
  Link(root, 0, z);
  const PartitionId z_partition = PartOf(z);
  auto result = collector_->Collect(PartOf(root));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(PartOf(z), z_partition) << "cross-partition referent not moved";
  // The remembered-set entry's source (root) moved partitions; the entry
  // must still protect z when its partition is collected.
  EXPECT_TRUE(index_.HasExternalReferences(z));
}

TEST_F(CollectorTest, IntraPartitionCycleOfGarbageReclaimed) {
  const ObjectId root = Alloc();
  ASSERT_TRUE(store_->AddRoot(root).ok());
  const ObjectId a = Alloc(100, root);
  const ObjectId b = Alloc(100, root);
  Link(a, 0, b);
  Link(b, 0, a);  // Unreachable 2-cycle within one partition.
  auto result = collector_->Collect(PartOf(a));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(store_->Exists(a));
  EXPECT_FALSE(store_->Exists(b));
  EXPECT_EQ(result->garbage_objects_reclaimed, 2u);
}

TEST_F(CollectorTest, ErrorsOnBadVictim) {
  EXPECT_EQ(collector_->Collect(99).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(collector_->Collect(store_->empty_partition()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CollectorTest, CollectionChargesCollectorPhase) {
  const ObjectId root = Alloc();
  ASSERT_TRUE(store_->AddRoot(root).ok());
  ASSERT_TRUE(buffer_->FlushAll().ok());
  // Evict everything so the collection must do real I/O.
  buffer_->DiscardExtent(PageExtent{0, 100});
  auto result = collector_->Collect(PartOf(root));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->page_reads, 0u);
  EXPECT_EQ(buffer_->stats().reads_gc, result->page_reads);
  EXPECT_EQ(buffer_->phase(), IoPhase::kApplication)
      << "phase must be restored after collection";
}

}  // namespace
}  // namespace odbgc
