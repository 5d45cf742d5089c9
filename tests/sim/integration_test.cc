// End-to-end runs of the scaled-down paper workload under every policy,
// checking the cross-policy invariants of trace-driven simulation.

#include <gtest/gtest.h>

#include "core/reachability.h"
#include "sim/config.h"
#include "sim/simulator.h"

namespace odbgc {
namespace {

SimulationConfig SmallPaperConfig(PolicyKind policy, uint64_t seed) {
  SimulationConfig config = PaperBaseConfig();
  config.heap.store.page_size = 2048;
  config.heap.store.pages_per_partition = 16;  // 32 KB partitions.
  config.heap.buffer_pages = 16;
  config.heap.overwrite_trigger = 40;
  config.heap.policy_name = PolicyName(policy);
  config.seed = seed;
  config.workload.target_live_bytes = 160ull << 10;
  config.workload.total_alloc_bytes = 420ull << 10;
  config.workload.tree_nodes_min = 80;
  config.workload.tree_nodes_max = 300;
  config.workload.large_object_size = 8192;
  return config;
}

SimulationResult RunOne(PolicyKind policy, uint64_t seed) {
  Simulator simulator(SmallPaperConfig(policy, seed));
  const Status status = simulator.Run();
  EXPECT_TRUE(status.ok()) << status.ToString();
  return simulator.Finish();
}

TEST(IntegrationTest, DeterministicAcrossRepeats) {
  const SimulationResult a = RunOne(PolicyKind::kUpdatedPointer, 1);
  const SimulationResult b = RunOne(PolicyKind::kUpdatedPointer, 1);
  EXPECT_EQ(a.app_events, b.app_events);
  EXPECT_EQ(a.app_io, b.app_io);
  EXPECT_EQ(a.gc_io, b.gc_io);
  EXPECT_EQ(a.max_storage_bytes, b.max_storage_bytes);
  EXPECT_EQ(a.garbage_reclaimed_bytes, b.garbage_reclaimed_bytes);
  EXPECT_EQ(a.collections, b.collections);
}

TEST(IntegrationTest, WorkloadIdenticalAcrossPolicies) {
  // The logical evolution of the database is trace-determined: events,
  // allocation volume, overwrites and final live bytes must be identical
  // whichever policy collected.
  const SimulationResult reference = RunOne(PolicyKind::kNoCollection, 2);
  for (PolicyKind policy :
       {PolicyKind::kRandom, PolicyKind::kUpdatedPointer,
        PolicyKind::kMostGarbage, PolicyKind::kMutatedPartition,
        PolicyKind::kWeightedPointer}) {
    const SimulationResult run = RunOne(policy, 2);
    EXPECT_EQ(run.app_events, reference.app_events) << PolicyName(policy);
    EXPECT_EQ(run.bytes_allocated, reference.bytes_allocated);
    EXPECT_EQ(run.pointer_overwrites, reference.pointer_overwrites);
    EXPECT_EQ(run.final_live_bytes, reference.final_live_bytes)
        << PolicyName(policy) << ": collection must never change liveness";
    EXPECT_EQ(run.actual_garbage_bytes(), reference.actual_garbage_bytes())
        << PolicyName(policy)
        << ": reclaimed + unreclaimed is a trace property";
  }
}

TEST(IntegrationTest, CollectingPoliciesReclaimGarbage) {
  for (PolicyKind policy : {PolicyKind::kRandom, PolicyKind::kUpdatedPointer,
                            PolicyKind::kMostGarbage}) {
    const SimulationResult run = RunOne(policy, 3);
    EXPECT_GT(run.collections, 3u) << PolicyName(policy);
    EXPECT_GT(run.garbage_reclaimed_bytes, 0u) << PolicyName(policy);
    EXPECT_GT(run.FractionReclaimedPct(), 5.0) << PolicyName(policy);
    EXPECT_GT(run.EfficiencyKbPerIo(), 0.0) << PolicyName(policy);
  }
}

TEST(IntegrationTest, NoCollectionUsesMostStorage) {
  const SimulationResult none = RunOne(PolicyKind::kNoCollection, 4);
  EXPECT_EQ(none.collections, 0u);
  EXPECT_EQ(none.gc_io, 0u);
  EXPECT_EQ(none.garbage_reclaimed_bytes, 0u);
  for (PolicyKind policy :
       {PolicyKind::kUpdatedPointer, PolicyKind::kMostGarbage}) {
    const SimulationResult run = RunOne(policy, 4);
    EXPECT_LT(run.max_storage_bytes, none.max_storage_bytes)
        << PolicyName(policy) << " must use less storage than NoCollection";
  }
}

TEST(IntegrationTest, OracleBeatsRandomOnReclamation) {
  // Averaged over a few seeds so a single lucky Random run cannot flip it.
  double oracle = 0, random = 0;
  for (uint64_t seed : {5ull, 6ull, 7ull}) {
    oracle += RunOne(PolicyKind::kMostGarbage, seed).FractionReclaimedPct();
    random += RunOne(PolicyKind::kRandom, seed).FractionReclaimedPct();
  }
  EXPECT_GT(oracle, random);
}

TEST(IntegrationTest, IoAccountingConsistent) {
  const SimulationResult run = RunOne(PolicyKind::kUpdatedPointer, 8);
  EXPECT_EQ(run.app_io, run.buffer_stats.app_io());
  EXPECT_EQ(run.gc_io, run.buffer_stats.gc_io());
  // Every buffer miss is exactly one disk read.
  EXPECT_EQ(run.buffer_stats.misses,
            run.buffer_stats.reads_app + run.buffer_stats.reads_gc);
}

}  // namespace
}  // namespace odbgc
