// The work-stealing scheduler's verification contract (DESIGN.md §15):
// scheduling is unobservable. Under skewed shard sizes — the load shape
// stealing exists for — the aggregate result must equal the serial
// oracle and itself across 1/2/4/8 threads, bitwise, for all six paper
// policies, with parallel marking on in every shard heap.
#include "sim/concurrent_simulator.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/selection_policy.h"
#include "sim/simulator.h"

namespace odbgc {
namespace {

// 8 shards, the last one 8x the volume of the rest: with a greedy
// whole-shard scheduler the giant shard dominates the critical path; the
// work-stealing scheduler must still produce the identical aggregate.
SimulationConfig SkewedConcurrent(const std::string& policy_name,
                                  uint32_t threads) {
  SimulationConfig config;
  config.heap.store.page_size = 1024;
  config.heap.store.pages_per_partition = 16;
  config.heap.buffer_pages = 16;
  config.heap.overwrite_trigger = 25;
  config.heap.policy_name = policy_name;
  config.heap.parallel_marking_threads = 2;  // Each shard heap's own pool.
  config.workload.target_live_bytes = 96ull << 10;
  config.workload.total_alloc_bytes = 240ull << 10;
  config.workload.tree_nodes_min = 50;
  config.workload.tree_nodes_max = 150;
  config.workload.large_object_size = 4096;
  config.seed = 11;
  config.mutator_threads = threads;
  config.trace_shards = 8;
  config.shard_weights = {1, 1, 1, 1, 1, 1, 1, 8};
  return config;
}

SimulationResult SerialOracle(const SimulationConfig& config) {
  ConcurrentSimulator shape(config);
  std::vector<SimulationResult> parts;
  for (uint32_t s = 0; s < shape.shard_count(); ++s) {
    SimulationConfig shard = shape.ShardConfig(s);
    shard.heap.parallel_marking_threads = 0;  // Oracle marks serially.
    Simulator sim(shard);
    EXPECT_TRUE(sim.Run().ok()) << "shard " << s;
    parts.push_back(sim.Finish());
  }
  SimulationResult result = ConcurrentSimulator::AggregateResults(parts);
  result.seed = config.seed;
  return result;
}

void ExpectResultsIdentical(const SimulationResult& a,
                            const SimulationResult& b) {
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.policy_name, b.policy_name);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.app_events, b.app_events);
  EXPECT_EQ(a.app_io, b.app_io);
  EXPECT_EQ(a.gc_io, b.gc_io);
  EXPECT_EQ(a.max_storage_bytes, b.max_storage_bytes);
  EXPECT_EQ(a.max_partitions, b.max_partitions);
  EXPECT_EQ(a.final_partitions, b.final_partitions);
  EXPECT_EQ(a.collections, b.collections);
  EXPECT_EQ(a.garbage_reclaimed_bytes, b.garbage_reclaimed_bytes);
  EXPECT_EQ(a.live_bytes_copied, b.live_bytes_copied);
  EXPECT_EQ(a.unreclaimed_garbage_bytes, b.unreclaimed_garbage_bytes);
  EXPECT_EQ(a.final_live_bytes, b.final_live_bytes);
  EXPECT_EQ(a.remset_entries, b.remset_entries);
  EXPECT_EQ(a.bytes_allocated, b.bytes_allocated);
  EXPECT_EQ(a.pointer_overwrites, b.pointer_overwrites);
  EXPECT_EQ(a.estimated_device_time_ms, b.estimated_device_time_ms);
  EXPECT_EQ(a.heap_stats.collections, b.heap_stats.collections);
  EXPECT_EQ(a.heap_stats.pointer_stores, b.heap_stats.pointer_stores);
  EXPECT_EQ(a.heap_stats.objects_allocated, b.heap_stats.objects_allocated);
  EXPECT_EQ(a.heap_stats.garbage_bytes_reclaimed,
            b.heap_stats.garbage_bytes_reclaimed);
  EXPECT_EQ(a.heap_stats.live_bytes_copied, b.heap_stats.live_bytes_copied);
  EXPECT_EQ(a.heap_stats.max_total_bytes, b.heap_stats.max_total_bytes);
  EXPECT_EQ(a.buffer_stats.hits, b.buffer_stats.hits);
  EXPECT_EQ(a.buffer_stats.misses, b.buffer_stats.misses);
  EXPECT_EQ(a.buffer_stats.reads_app, b.buffer_stats.reads_app);
  EXPECT_EQ(a.buffer_stats.reads_gc, b.buffer_stats.reads_gc);
  EXPECT_EQ(a.buffer_stats.writes_app, b.buffer_stats.writes_app);
  EXPECT_EQ(a.buffer_stats.writes_gc, b.buffer_stats.writes_gc);
  EXPECT_EQ(a.disk_stats.page_reads, b.disk_stats.page_reads);
  EXPECT_EQ(a.disk_stats.page_writes, b.disk_stats.page_writes);
  EXPECT_EQ(a.disk_stats.sequential_transfers,
            b.disk_stats.sequential_transfers);
  EXPECT_EQ(a.disk_stats.random_transfers, b.disk_stats.random_transfers);
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (size_t i = 0; i < a.metrics.size(); ++i) {
    EXPECT_EQ(a.metrics[i].name, b.metrics[i].name) << "sample " << i;
    EXPECT_EQ(a.metrics[i].application, b.metrics[i].application)
        << a.metrics[i].name;
    EXPECT_EQ(a.metrics[i].collector, b.metrics[i].collector)
        << a.metrics[i].name;
  }
}

class WorkStealingEquivalenceTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkStealingEquivalenceTest, SkewedShardsMatchSerialOracle) {
  const SimulationConfig config = SkewedConcurrent(GetParam(), 4);
  const SimulationResult oracle = SerialOracle(config);

  ConcurrentSimulator concurrent(config);
  ASSERT_TRUE(concurrent.Run().ok());
  ExpectResultsIdentical(concurrent.Finish(), oracle);
}

TEST_P(WorkStealingEquivalenceTest, ResultIsThreadCountInvariant) {
  const SimulationResult baseline =
      [&] {
        ConcurrentSimulator sim(SkewedConcurrent(GetParam(), 1));
        EXPECT_TRUE(sim.Run().ok());
        return sim.Finish();
      }();
  for (uint32_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ConcurrentSimulator sim(SkewedConcurrent(GetParam(), threads));
    ASSERT_TRUE(sim.Run().ok());
    ExpectResultsIdentical(sim.Finish(), baseline);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, WorkStealingEquivalenceTest,
                         ::testing::ValuesIn(PaperPolicyNames()));

TEST(WorkStealingSchedulerTest, WeightedSlicesCoverTheAllocationVolume) {
  const SimulationConfig config = SkewedConcurrent("UpdatedPointer", 4);
  ConcurrentSimulator sim(config);
  uint64_t covered = 0;
  for (uint32_t s = 0; s < sim.shard_count(); ++s) {
    covered += sim.ShardConfig(s).workload.total_alloc_bytes;
  }
  EXPECT_EQ(covered, config.workload.total_alloc_bytes);
  // The weight-8 shard holds 8/15 of the volume, to rounding.
  const uint64_t giant = sim.ShardConfig(7).workload.total_alloc_bytes;
  const uint64_t expected =
      static_cast<uint64_t>(config.workload.total_alloc_bytes * 8.0 / 15.0);
  EXPECT_NEAR(static_cast<double>(giant), static_cast<double>(expected), 2.0);
}

TEST(WorkStealingSchedulerTest, EmptyWeightsKeepTheEqualSplit) {
  SimulationConfig config = SkewedConcurrent("UpdatedPointer", 4);
  config.shard_weights.clear();
  ConcurrentSimulator sim(config);
  const uint64_t total = config.workload.total_alloc_bytes;
  uint64_t covered = 0;
  for (uint32_t s = 0; s < sim.shard_count(); ++s) {
    const uint64_t slice = sim.ShardConfig(s).workload.total_alloc_bytes;
    EXPECT_GE(slice, total / 8);
    EXPECT_LE(slice, total / 8 + 1);
    covered += slice;
  }
  EXPECT_EQ(covered, total);
}

TEST(WorkStealingSchedulerTest, RejectsMismatchedWeights) {
  SimulationConfig config = SkewedConcurrent("UpdatedPointer", 4);
  config.shard_weights = {1, 2, 3};  // 3 weights, 8 shards.
  ConcurrentSimulator sim(config);
  EXPECT_EQ(sim.Run().code(), StatusCode::kInvalidArgument);
}

TEST(WorkStealingSchedulerTest, RejectsNonPositiveWeights) {
  SimulationConfig config = SkewedConcurrent("UpdatedPointer", 4);
  config.shard_weights = {1, 1, 1, 1, 1, 1, 1, 0};
  ConcurrentSimulator sim(config);
  EXPECT_EQ(sim.Run().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace odbgc
