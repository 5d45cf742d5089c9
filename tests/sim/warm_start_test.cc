#include <gtest/gtest.h>

#include "sim/config.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace odbgc {
namespace {

SimulationConfig TinyConfig(bool warm, uint64_t seed = 1) {
  SimulationConfig config;
  config.heap.store.page_size = 1024;
  config.heap.store.pages_per_partition = 16;
  config.heap.buffer_pages = 16;
  config.heap.overwrite_trigger = 30;
  config.seed = seed;
  config.warm_start = warm;
  config.workload.target_live_bytes = 96ull << 10;
  config.workload.total_alloc_bytes = 240ull << 10;
  config.workload.tree_nodes_min = 60;
  config.workload.tree_nodes_max = 200;
  config.workload.large_object_size = 4096;
  return config;
}

TEST(WarmStartTest, ExcludesBuildPhaseFromMeasurements) {
  Simulator cold(TinyConfig(false));
  ASSERT_TRUE(cold.Run().ok());
  const SimulationResult cold_result = cold.Finish();

  Simulator warm(TinyConfig(true));
  ASSERT_TRUE(warm.Run().ok());
  const SimulationResult warm_result = warm.Finish();

  // The warm run measures strictly less: fewer events, fewer allocated
  // bytes (the build is excluded), less application I/O.
  EXPECT_LT(warm_result.app_events, cold_result.app_events);
  EXPECT_LT(warm_result.bytes_allocated, cold_result.bytes_allocated);
  EXPECT_LT(warm_result.app_io, cold_result.app_io);
  // But the database itself ends identical (same trace).
  EXPECT_EQ(warm_result.final_live_bytes, cold_result.final_live_bytes);
  EXPECT_EQ(warm_result.final_partitions, cold_result.final_partitions);
}

TEST(WarmStartTest, HeapResetMeasurementKeepsDatabase) {
  Simulator simulator(TinyConfig(false));
  ASSERT_TRUE(simulator.Run().ok());
  CollectedHeap& heap = simulator.heap();
  const size_t objects = heap.store().object_count();
  const uint64_t live = heap.store().live_bytes();
  ASSERT_GT(heap.total_io(), 0u);

  heap.ResetMeasurement();
  EXPECT_EQ(heap.total_io(), 0u);
  EXPECT_EQ(heap.stats().collections, 0u);
  EXPECT_EQ(heap.stats().bytes_allocated, 0u);
  EXPECT_TRUE(heap.collection_log().empty());
  // The database is untouched.
  EXPECT_EQ(heap.store().object_count(), objects);
  EXPECT_EQ(heap.store().live_bytes(), live);
  // The footprint high-water mark restarts from the current footprint.
  EXPECT_EQ(heap.stats().max_total_bytes, heap.store().total_bytes());
}

TEST(WarmStartTest, WarmBufferSavesInitialIo) {
  // The first traversals after a warm start hit the still-resident build
  // pages; a cold-started heap with an artificially cleared buffer would
  // have to fault them in. Compare warm-start app I/O to the same phase
  // of a run whose buffer was discarded after the build.
  SimulationConfig config = TinyConfig(true, 7);
  Simulator warm(config);
  ASSERT_TRUE(warm.Run().ok());

  Simulator flushed(config);
  // Replicate Run() but clear the buffer between phases.
  WorkloadGenerator generator(config.workload, config.seed);
  ASSERT_TRUE(generator.BuildInitialDatabase(&flushed).ok());
  flushed.heap().ResetMeasurement();
  ASSERT_TRUE(flushed.heap().mutable_buffer().FlushAll().ok());
  flushed.heap().mutable_buffer().DiscardExtent(
      PageExtent{0, flushed.heap().device().num_pages()});
  flushed.heap().mutable_buffer().ResetStats();
  ASSERT_TRUE(generator.Generate(&flushed).ok());

  // The warm buffer saves application *reads* (its resident pages need no
  // fault-in); its deferred write-backs of build-phase dirty pages can
  // offset the total, so the clean comparison is reads.
  EXPECT_LE(warm.Finish().buffer_stats.reads_app,
            flushed.Finish().buffer_stats.reads_app);
}

}  // namespace
}  // namespace odbgc
