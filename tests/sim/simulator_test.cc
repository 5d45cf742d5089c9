#include "sim/simulator.h"

#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "observe/manifest.h"
#include "workload/generator.h"

namespace odbgc {
namespace {

SimulationConfig TinySim() {
  SimulationConfig config;
  config.heap.store.page_size = 512;
  config.heap.store.pages_per_partition = 8;
  config.heap.buffer_pages = 8;
  config.heap.overwrite_trigger = 0;  // Manual only; traces below are tiny.
  return config;
}

TEST(SimulatorTest, ReplaysHandWrittenTrace) {
  Simulator simulator(TinySim());
  ASSERT_TRUE(simulator.Append(TraceEvent::Alloc(10, 100, 2, 0, 0)).ok());
  ASSERT_TRUE(simulator.Append(TraceEvent::AddRoot(10)).ok());
  ASSERT_TRUE(simulator.Append(TraceEvent::Alloc(20, 100, 2, 10, 0)).ok());
  ASSERT_TRUE(simulator.Append(TraceEvent::WriteSlot(10, 0, 20)).ok());
  ASSERT_TRUE(simulator.Append(TraceEvent::Visit(20)).ok());
  ASSERT_TRUE(simulator.Append(TraceEvent::ReadSlot(10, 0)).ok());
  ASSERT_TRUE(simulator.Append(TraceEvent::WriteData(20)).ok());
  ASSERT_TRUE(simulator.Append(TraceEvent::WriteSlot(10, 0, 0)).ok());
  ASSERT_TRUE(simulator.Append(TraceEvent::RemoveRoot(10)).ok());

  EXPECT_EQ(simulator.events_applied(), 9u);
  const CollectedHeap& heap = simulator.heap();
  EXPECT_EQ(heap.store().object_count(), 2u);
  EXPECT_EQ(heap.stats().pointer_overwrites, 1u);
  EXPECT_TRUE(heap.store().roots().empty());
}

TEST(SimulatorTest, LogicalIdsAreIndependentOfStoreIds) {
  Simulator simulator(TinySim());
  // Trace uses arbitrary sparse ids.
  ASSERT_TRUE(
      simulator.Append(TraceEvent::Alloc(0xdeadbeef, 100, 2, 0, 0)).ok());
  ASSERT_TRUE(simulator.Append(TraceEvent::Alloc(7, 100, 2, 0, 0)).ok());
  ASSERT_TRUE(simulator.Append(TraceEvent::WriteSlot(0xdeadbeef, 1, 7)).ok());
  EXPECT_EQ(simulator.heap().store().object_count(), 2u);
}

TEST(SimulatorTest, UnknownObjectRejected) {
  Simulator simulator(TinySim());
  EXPECT_EQ(simulator.Append(TraceEvent::Visit(5)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(simulator.Append(TraceEvent::WriteSlot(5, 0, 0)).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(simulator.Append(TraceEvent::Alloc(5, 100, 2, 0, 0)).ok());
  EXPECT_EQ(simulator.Append(TraceEvent::WriteSlot(5, 0, 9)).code(),
            StatusCode::kNotFound);
}

TEST(SimulatorTest, DuplicateAllocRejected) {
  Simulator simulator(TinySim());
  ASSERT_TRUE(simulator.Append(TraceEvent::Alloc(5, 100, 2, 0, 0)).ok());
  EXPECT_EQ(simulator.Append(TraceEvent::Alloc(5, 100, 2, 0, 0)).code(),
            StatusCode::kCorruption);
}

TEST(SimulatorTest, SnapshotsProduceTimeSeries) {
  SimulationConfig config = TinySim();
  config.snapshot_interval = 3;
  Simulator simulator(config);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        simulator.Append(TraceEvent::Alloc(100 + i, 100, 2, 0, 0)).ok());
  }
  SimulationResult result = simulator.Finish();
  EXPECT_EQ(result.database_size_kb.points().size(), 3u);  // At 3, 6, 9.
  EXPECT_EQ(result.unreclaimed_garbage_kb.points().size(), 3u);
  EXPECT_DOUBLE_EQ(result.database_size_kb.points()[0].x, 3.0);
}

TEST(SimulatorTest, FinishComputesCensusAndAccounting) {
  Simulator simulator(TinySim());
  ASSERT_TRUE(simulator.Append(TraceEvent::Alloc(1, 100, 2, 0, 0)).ok());
  ASSERT_TRUE(simulator.Append(TraceEvent::AddRoot(1)).ok());
  ASSERT_TRUE(simulator.Append(TraceEvent::Alloc(2, 150, 2, 1, 0)).ok());

  SimulationResult result = simulator.Finish();
  EXPECT_EQ(result.app_events, 3u);
  EXPECT_EQ(result.final_live_bytes, 100u);
  EXPECT_EQ(result.unreclaimed_garbage_bytes, 150u);
  EXPECT_EQ(result.actual_garbage_bytes(), 150u);
  EXPECT_EQ(result.bytes_allocated, 250u);
  EXPECT_EQ(result.total_io(), result.app_io + result.gc_io);
}

// A small generated workload that triggers collections.
SimulationConfig CollectingSim() {
  SimulationConfig config = TinySim();
  config.heap.overwrite_trigger = 25;
  config.workload.target_live_bytes = 32ull << 10;
  config.workload.total_alloc_bytes = 80ull << 10;
  config.workload.tree_nodes_min = 40;
  config.workload.tree_nodes_max = 120;
  config.workload.large_object_size = 2048;
  config.seed = 3;
  return config;
}

TEST(SimulatorTest, RunGeneratesConfiguredWorkload) {
  const SimulationConfig config = CollectingSim();
  Simulator simulator(config);
  ASSERT_TRUE(simulator.Run().ok());
  SimulationResult result = simulator.Finish();
  EXPECT_GT(result.app_events, 1000u);
  EXPECT_GT(result.collections, 0u);
  EXPECT_GE(result.bytes_allocated, config.workload.total_alloc_bytes);
}

// Logical ids issued in sequence (1, 2, 3, ...) take the simulator's dense
// table; any other id takes its hash map. The two must replay alike.

// The canonical `result` section of the run's manifest: every field of the
// SimulationResult, serialized.
std::string ResultBytes(const SimulationConfig& config,
                        const SimulationResult& result) {
  const Json manifest = BuildManifest(config, result);
  const Json* section = manifest.Get("result");
  return section == nullptr ? std::string() : section->Dump();
}

TEST(SimulatorTest, SparseLogicalIdsReplayLikeSequentialOnes) {
  const SimulationConfig config = CollectingSim();
  VectorTraceSink stream;
  WorkloadGenerator generator(config.workload, config.seed);
  ASSERT_TRUE(generator.Generate(&stream).ok());

  // Odd multiplier: a bijection on 64-bit ids that maps 0 to 0 only, and
  // scatters 1, 2, 3, ... far out of sequence.
  auto sparse = [](uint64_t id) { return id * 0x9E3779B97F4A7C15ull; };
  Simulator sequential(config);
  Simulator remapped(config);
  for (const TraceEvent& event : stream.events()) {
    ASSERT_TRUE(sequential.Append(event).ok());
    TraceEvent moved = event;
    moved.object = sparse(event.object);
    moved.target = sparse(event.target);
    moved.parent_hint = sparse(event.parent_hint);
    ASSERT_TRUE(remapped.Append(moved).ok());
  }
  const SimulationResult expected = sequential.Finish();
  EXPECT_GT(expected.collections, 0u);
  EXPECT_EQ(ResultBytes(config, remapped.Finish()),
            ResultBytes(config, expected));
}

TEST(SimulatorTest, MaxLogicalIdIsReferencedWithoutSizingByValue) {
  Simulator simulator(TinySim());
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  // A table sized by id value would need 2^64 entries here and throw.
  ASSERT_TRUE(simulator.Append(TraceEvent::Alloc(kMax, 100, 2, 0, 0)).ok());
  ASSERT_TRUE(simulator.Append(TraceEvent::Alloc(1, 100, 2, kMax, 0)).ok());
  ASSERT_TRUE(simulator.Append(TraceEvent::WriteSlot(kMax, 0, 1)).ok());
  ASSERT_TRUE(simulator.Append(TraceEvent::WriteSlot(1, 1, kMax)).ok());
  ASSERT_TRUE(simulator.Append(TraceEvent::AddRoot(kMax)).ok());
  ASSERT_TRUE(simulator.Append(TraceEvent::Visit(kMax)).ok());
  ASSERT_TRUE(simulator.Append(TraceEvent::ReadSlot(kMax, 0)).ok());
  EXPECT_EQ(simulator.heap().store().object_count(), 2u);
  EXPECT_EQ(simulator.Append(TraceEvent::Alloc(kMax, 100, 2, 0, 0)).code(),
            StatusCode::kCorruption);
}

TEST(SimulatorTest, ZeroLogicalIdAllocatesOnceThenIsADuplicate) {
  Simulator simulator(TinySim());
  ASSERT_TRUE(simulator.Append(TraceEvent::Alloc(0, 100, 2, 0, 0)).ok());
  EXPECT_EQ(simulator.Append(TraceEvent::Alloc(0, 100, 2, 0, 0)).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(simulator.heap().store().object_count(), 1u);
}

TEST(SimulatorTest, DuplicateAcrossTheTwoTablesRejected) {
  // 3 arrives out of sequence (hash map); 1 and 2 fill the dense table, so
  // the second 3 is the next in sequence and must still be seen.
  Simulator simulator(TinySim());
  ASSERT_TRUE(simulator.Append(TraceEvent::Alloc(3, 100, 2, 0, 0)).ok());
  ASSERT_TRUE(simulator.Append(TraceEvent::Alloc(1, 100, 2, 0, 0)).ok());
  ASSERT_TRUE(simulator.Append(TraceEvent::Alloc(2, 100, 2, 0, 0)).ok());
  EXPECT_EQ(simulator.Append(TraceEvent::Alloc(3, 100, 2, 0, 0)).code(),
            StatusCode::kCorruption);
  // An id already in the dense table, arriving out of sequence.
  EXPECT_EQ(simulator.Append(TraceEvent::Alloc(2, 100, 2, 0, 0)).code(),
            StatusCode::kCorruption);
  // A rejected Alloc allocates nothing.
  EXPECT_EQ(simulator.heap().store().object_count(), 3u);
}

TEST(SimulatorTest, UnknownIdNotFoundInEitherTable) {
  Simulator simulator(TinySim());
  // Before any Alloc: an id that would be next in sequence, and one that
  // would go to the empty hash map.
  EXPECT_EQ(simulator.Append(TraceEvent::Visit(1)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(simulator.Append(TraceEvent::Visit(0xdeadbeef)).code(),
            StatusCode::kNotFound);

  ASSERT_TRUE(simulator.Append(TraceEvent::Alloc(1, 100, 2, 0, 0)).ok());
  ASSERT_TRUE(simulator.Append(TraceEvent::Alloc(2, 100, 2, 0, 0)).ok());
  ASSERT_TRUE(
      simulator.Append(TraceEvent::Alloc(0xdeadbeef, 100, 2, 0, 0)).ok());
  // Dense side: the next id in sequence, not yet allocated.
  EXPECT_EQ(simulator.Append(TraceEvent::Visit(3)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(simulator.Append(TraceEvent::WriteSlot(1, 0, 3)).code(),
            StatusCode::kNotFound);
  // Hash-map side, now non-empty.
  EXPECT_EQ(simulator.Append(TraceEvent::Visit(0xdeadbef0)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(simulator.Append(TraceEvent::WriteSlot(0xdeadbeef, 0, 5)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(simulator.Append(TraceEvent::AddRoot(
                std::numeric_limits<uint64_t>::max())).code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(simulator.Append(TraceEvent::WriteSlot(0xdeadbeef, 0, 2)).ok());
}

}  // namespace
}  // namespace odbgc
