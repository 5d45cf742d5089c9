// Property tests over whole heap runs: for every policy and several seeds,
// replay a scaled-down paper workload and check the invariants that define
// a correct partitioned collector — no live object is ever lost, shadow
// state matches the serialized pages, the inter-partition index is exactly
// the set of inter-partition pointers, and physical layouts never overlap.
// The structural invariants (support/heap_invariants.h) are checked after
// every collection and full collection as well.

#include <cstddef>
#include <cstring>
#include <map>
#include <ostream>
#include <set>
#include <string_view>

#include <gtest/gtest.h>

#include "core/reachability.h"
#include "sim/config.h"
#include "sim/simulator.h"
#include "support/heap_invariants.h"

namespace odbgc {
namespace {

SimulationConfig TinyConfig(PolicyKind policy, uint64_t seed) {
  SimulationConfig config;
  config.heap.store.page_size = 1024;
  config.heap.store.pages_per_partition = 16;  // 16 KB partitions.
  config.heap.buffer_pages = 16;
  config.heap.policy = policy;
  config.heap.overwrite_trigger = 25;
  config.seed = seed;

  config.workload.target_live_bytes = 96ull << 10;
  config.workload.total_alloc_bytes = 256ull << 10;
  config.workload.tree_nodes_min = 60;
  config.workload.tree_nodes_max = 200;
  config.workload.large_object_size = 4096;
  config.workload.large_space_fraction = 0.15;
  return config;
}

struct Params {
  PolicyKind policy;
  uint64_t seed;
};

// gtest writes each case's parameter into its ctest name, by default as the
// struct's raw bytes, padding after `policy` included. Print the same dump
// from a zeroed copy, so stack contents never change the name.
void PrintTo(const Params& params, std::ostream* os) {
  struct {
    unsigned char bytes[sizeof(Params)];
  } copy{};
  std::memcpy(copy.bytes + offsetof(Params, policy), &params.policy,
              sizeof params.policy);
  std::memcpy(copy.bytes + offsetof(Params, seed), &params.seed,
              sizeof params.seed);
  *os << ::testing::PrintToString(copy);
}

// Checks the heap invariants (support/heap_invariants.h) after every
// collection and every full collection the watched heap publishes.
class InvariantCheckingObserver : public SimObserver {
 public:
  void Watch(const CollectedHeap* heap) { heap_ = heap; }
  void OnCollection(const CollectionEvent& event) override {
    ++collections_;
    EXPECT_TRUE(HeapInvariantsHold(*heap_))
        << "after collection " << event.ordinal;
  }
  void OnPhase(const PhaseEvent& event) override {
    if (std::string_view(event.phase) != "full_collection") return;
    ++full_collections_;
    EXPECT_TRUE(HeapInvariantsHold(*heap_))
        << "after full collection " << full_collections_;
  }
  uint64_t collections() const { return collections_; }
  uint64_t full_collections() const { return full_collections_; }

 private:
  const CollectedHeap* heap_ = nullptr;
  uint64_t collections_ = 0;
  uint64_t full_collections_ = 0;
};

class HeapPropertyTest : public ::testing::TestWithParam<Params> {};

TEST_P(HeapPropertyTest, InvariantsHoldAfterFullRun) {
  const Params params = GetParam();
  InvariantCheckingObserver observer;
  SimulationConfig config = TinyConfig(params.policy, params.seed);
  config.heap.observer = &observer;
  Simulator simulator(config);
  observer.Watch(&simulator.heap());
  ASSERT_TRUE(simulator.Run().ok());

  CollectedHeap& heap = simulator.heap();
  const ObjectStore& store = heap.store();
  if (params.policy != PolicyKind::kNoCollection) {
    ASSERT_GT(heap.stats().collections, 2u) << "workload must trigger GC";
  }
  EXPECT_EQ(observer.collections(), heap.stats().collections);
  EXPECT_TRUE(HeapInvariantsHold(heap));

  // --- 1. Reachability closure: every object reachable from the roots
  // exists (nothing live was ever reclaimed). ComputeLiveSet itself
  // asserts existence via Lookup; verify roots exist and are closed.
  const auto live = ComputeLiveSet(store);
  for (ObjectId root : store.roots()) {
    ASSERT_TRUE(store.Exists(root));
  }
  for (ObjectId id : live) {
    const auto* info = store.Lookup(id);
    ASSERT_NE(info, nullptr) << "live object " << id.value << " lost";
    for (ObjectId child : info->slots) {
      if (!child.is_null()) {
        ASSERT_TRUE(store.Exists(child))
            << "live object " << id.value << " points at missing "
            << child.value;
      }
    }
  }

  // --- 2. Physical layout: within each partition, objects are disjoint,
  // in-bounds, and the roster agrees with the object table.
  size_t roster_total = 0;
  for (size_t pid = 0; pid < store.partition_count(); ++pid) {
    const Partition& partition = store.partition(pid);
    uint32_t prev_end = 0;
    for (const auto& [offset, id] : partition.objects_by_offset()) {
      const auto* info = store.Lookup(id);
      ASSERT_NE(info, nullptr);
      ASSERT_EQ(info->partition, pid);
      ASSERT_EQ(info->offset, offset);
      ASSERT_GE(offset, prev_end) << "objects overlap in partition " << pid;
      prev_end = offset + info->size;
      ASSERT_LE(prev_end, partition.allocated_bytes());
      ++roster_total;
    }
  }
  ASSERT_EQ(roster_total, store.object_count());

  // --- 3. Serialized state: a sample of objects decode from their pages
  // with exactly the shadow metadata and slot values.
  size_t checked = 0;
  for (size_t pid = 0; pid < store.partition_count() && checked < 64;
       ++pid) {
    for (const auto& [offset, id] :
         store.partition(pid).objects_by_offset()) {
      const auto* info = store.Lookup(id);
      auto header = heap.mutable_store().ReadHeaderFromPages(id);
      ASSERT_TRUE(header.ok()) << header.status().ToString();
      ASSERT_EQ(header->id, id);
      ASSERT_EQ(header->size, info->size);
      ASSERT_EQ(header->num_slots, info->num_slots);
      for (uint32_t s = 0; s < info->num_slots; ++s) {
        auto slot = heap.mutable_store().ReadSlotFromPages(id, s);
        ASSERT_TRUE(slot.ok());
        ASSERT_EQ(*slot, info->slots[s]) << "shadow/page divergence";
      }
      if (++checked >= 64) break;
    }
  }

  // --- 4. The inter-partition index is exactly the set of cross-partition
  // pointers in the store.
  std::set<std::tuple<uint64_t, uint32_t, uint64_t>> expected;
  for (size_t pid = 0; pid < store.partition_count(); ++pid) {
    for (const auto& [offset, id] :
         store.partition(pid).objects_by_offset()) {
      const auto* info = store.Lookup(id);
      for (uint32_t s = 0; s < info->num_slots; ++s) {
        const ObjectId target = info->slots[s];
        if (target.is_null()) continue;
        const auto* target_info = store.Lookup(target);
        ASSERT_NE(target_info, nullptr);
        if (target_info->partition != info->partition) {
          expected.insert({id.value, s, target.value});
        }
      }
    }
  }
  const InterPartitionIndex& index = heap.index();
  ASSERT_EQ(index.entry_count(), expected.size());
  for (const auto& [source, slot, target] : expected) {
    const auto* entries = index.EntriesForTarget(ObjectId{target});
    ASSERT_NE(entries, nullptr);
    bool found = false;
    for (const auto& loc : *entries) {
      if (loc.source == ObjectId{source} && loc.slot == slot) found = true;
    }
    ASSERT_TRUE(found) << "missing remset entry " << source << "." << slot
                       << " -> " << target;
  }

  // --- 5. Accounting: reclaimed + remaining garbage + live equals
  // everything ever allocated.
  const GarbageCensus census = ComputeGarbageCensus(store);
  EXPECT_EQ(heap.stats().bytes_allocated,
            census.total_live_bytes + census.total_garbage_bytes +
                heap.stats().garbage_bytes_reclaimed);
  EXPECT_EQ(store.live_bytes(),
            census.total_live_bytes + census.total_garbage_bytes);

  // --- 6. The reserved empty partition really is empty.
  const PartitionId empty = store.empty_partition();
  EXPECT_EQ(store.partition(empty).object_count(), 0u);
  EXPECT_EQ(store.partition(empty).allocated_bytes(), 0u);
}

// Every policy with a whole-database collection after every third
// partition collection: the check runs after both kinds.
class HeapFullCollectionPropertyTest
    : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(HeapFullCollectionPropertyTest, InvariantsHoldAfterEveryCollection) {
  InvariantCheckingObserver observer;
  SimulationConfig config = TinyConfig(GetParam(), 1);
  config.heap.full_collection_interval = 3;
  config.heap.observer = &observer;
  Simulator simulator(config);
  observer.Watch(&simulator.heap());
  ASSERT_TRUE(simulator.Run().ok());

  const CollectedHeap& heap = simulator.heap();
  EXPECT_EQ(observer.collections(), heap.stats().collections);
  EXPECT_EQ(observer.full_collections(), heap.stats().full_collections);
  if (GetParam() != PolicyKind::kNoCollection) {
    EXPECT_GT(heap.stats().full_collections, 0u);
  }
  EXPECT_TRUE(HeapInvariantsHold(heap));
}

INSTANTIATE_TEST_SUITE_P(
    Policies, HeapFullCollectionPropertyTest,
    ::testing::ValuesIn(AllPolicyKinds()),
    [](const ::testing::TestParamInfo<PolicyKind>& info) {
      return std::string(PolicyName(info.param));
    });

std::vector<Params> AllParams() {
  std::vector<Params> params;
  for (PolicyKind policy : AllPolicyKinds()) {
    for (uint64_t seed : {1ull, 2ull, 3ull}) {
      params.push_back({policy, seed});
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, HeapPropertyTest, ::testing::ValuesIn(AllParams()),
    [](const ::testing::TestParamInfo<Params>& info) {
      return std::string(PolicyName(info.param.policy)) + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace odbgc
