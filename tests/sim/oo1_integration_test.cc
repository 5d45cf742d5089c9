// End-to-end replay of the OO1-style workload under each policy: the same
// cross-policy invariants as the tree workload, on a flat, connection-
// heavy object graph.

#include <gtest/gtest.h>

#include "core/reachability.h"
#include "sim/simulator.h"
#include "workload/oo1_generator.h"

namespace odbgc {
namespace {

SimulationConfig SmallHeapConfig(PolicyKind policy) {
  SimulationConfig config;
  config.heap.store.page_size = 1024;
  config.heap.store.pages_per_partition = 16;
  config.heap.buffer_pages = 16;
  config.heap.policy_name = PolicyName(policy);
  config.heap.overwrite_trigger = 60;
  return config;
}

OO1Config SmallOO1() {
  OO1Config config;
  config.target_live_bytes = 96ull << 10;
  config.total_alloc_bytes = 220ull << 10;
  config.lookup_count = 20;
  config.traversal_depth = 4;
  config.inserts_per_round = 10;
  config.deletes_per_round = 10;
  return config;
}

SimulationResult RunOne(PolicyKind policy, uint64_t seed) {
  Simulator simulator(SmallHeapConfig(policy));
  OO1Generator generator(SmallOO1(), seed);
  const Status status = generator.Generate(&simulator);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return simulator.Finish();
}

TEST(OO1IntegrationTest, ReplaysUnderEveryPolicy) {
  for (PolicyKind policy : AllPolicyKinds()) {
    const SimulationResult run = RunOne(policy, 1);
    EXPECT_GT(run.app_events, 10000u) << PolicyName(policy);
    if (policy != PolicyKind::kNoCollection) {
      EXPECT_GT(run.collections, 0u) << PolicyName(policy);
    }
  }
}

TEST(OO1IntegrationTest, WorkloadIdenticalAcrossPolicies) {
  const SimulationResult reference = RunOne(PolicyKind::kNoCollection, 2);
  for (PolicyKind policy :
       {PolicyKind::kUpdatedPointer, PolicyKind::kMostGarbage}) {
    const SimulationResult run = RunOne(policy, 2);
    EXPECT_EQ(run.app_events, reference.app_events);
    EXPECT_EQ(run.final_live_bytes, reference.final_live_bytes);
    EXPECT_EQ(run.actual_garbage_bytes(), reference.actual_garbage_bytes());
  }
}

TEST(OO1IntegrationTest, DeletesCreateReclaimableGarbage) {
  const SimulationResult run = RunOne(PolicyKind::kMostGarbage, 3);
  EXPECT_GT(run.actual_garbage_bytes(), 20ull << 10);
  EXPECT_GT(run.garbage_reclaimed_bytes, 0u);
}

TEST(OO1IntegrationTest, HeapInvariantsHoldAfterRun) {
  Simulator simulator(SmallHeapConfig(PolicyKind::kUpdatedPointer));
  OO1Generator generator(SmallOO1(), 4);
  ASSERT_TRUE(generator.Generate(&simulator).ok());

  const ObjectStore& store = simulator.heap().store();
  const auto live = ComputeLiveSet(store);
  for (ObjectId id : live) {
    const auto* info = store.Lookup(id);
    ASSERT_NE(info, nullptr);
    for (ObjectId child : info->slots) {
      if (!child.is_null()) {
        ASSERT_TRUE(store.Exists(child));
      }
    }
  }
  // Live parts tracked by the generator are a lower bound on live bytes.
  EXPECT_GE(ComputeGarbageCensus(store).total_live_bytes,
            generator.live_part_count() * 100);
}

}  // namespace
}  // namespace odbgc
