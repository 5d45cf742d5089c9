// Recovery is a rerun (DESIGN.md §8): a run stopped at some round is
// restored by running the same (config, seed) to that round again. This
// holds only if every path of the dense data plane is deterministic
// mid-run, not just in its final counters: the weight table and weighted
// policy sums (WeightedPointer), the per-partition hint counters
// (MutatedPartition), the extension policies' tables
// (LeastRecentlyCollected, CostBenefit) and the buffer pool's LRU list.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>

#include "sim/config.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace odbgc {
namespace {

SimulationConfig TinyConfig(uint64_t seed) {
  SimulationConfig config;
  config.heap.store.page_size = 1024;
  config.heap.store.pages_per_partition = 16;
  config.heap.buffer_pages = 16;
  config.heap.overwrite_trigger = 30;
  config.seed = seed;
  config.workload.target_live_bytes = 96ull << 10;
  config.workload.total_alloc_bytes = 240ull << 10;
  config.workload.tree_nodes_min = 60;
  config.workload.tree_nodes_max = 200;
  config.workload.large_object_size = 4096;
  return config;
}

/// A simulation stopped after some workload rounds.
struct PartialRun {
  std::unique_ptr<Simulator> simulator;
  std::unique_ptr<WorkloadGenerator> generator;
};

PartialRun RunPartway(const SimulationConfig& config, int rounds) {
  PartialRun run;
  run.simulator = std::make_unique<Simulator>(config);
  run.generator =
      std::make_unique<WorkloadGenerator>(config.workload, config.seed);
  EXPECT_TRUE(run.generator->BuildInitialDatabase(run.simulator.get()).ok());
  for (int i = 0; i < rounds && !run.generator->Done(); ++i) {
    EXPECT_TRUE(run.generator->RunRound(run.simulator.get()).ok());
  }
  return run;
}

// The state of a stopped run that the library lets a caller read, as one
// canonical string: the generator's position, the heap's counters and
// collection log, every simulated metric, the buffer pool's LRU
// order and dirty bits, the device's counters, every live object's place,
// slots and weight, the partitions, the remembered sets and the
// collection candidates.
std::string StateBytes(const PartialRun& run) {
  std::ostringstream out;
  const WorkloadGenerator& generator = *run.generator;
  out << "generator " << generator.rounds_run() << ' '
      << generator.total_allocated_bytes() << ' '
      << generator.logical_live_bytes() << ' ' << generator.tree_count()
      << ' ' << generator.logical_node_count() << '\n';

  const CollectedHeap& heap = run.simulator->heap();
  const HeapStats& stats = heap.stats();
  out << "events " << run.simulator->events_applied() << "\nheap "
      << stats.collections << ' ' << stats.full_collections << ' '
      << stats.pointer_stores << ' ' << stats.pointer_overwrites << ' '
      << stats.objects_allocated << ' ' << stats.bytes_allocated << ' '
      << stats.garbage_bytes_reclaimed << ' '
      << stats.garbage_objects_reclaimed << ' ' << stats.live_bytes_copied
      << ' ' << stats.live_objects_copied << ' ' << stats.max_total_bytes
      << ' ' << stats.max_partitions << '\n';
  for (const CollectionResult& c : heap.collection_log()) {
    out << "collection " << c.collected << ' ' << c.copy_target << ' '
        << c.live_objects_copied << ' ' << c.live_bytes_copied << ' '
        << c.garbage_objects_reclaimed << ' ' << c.garbage_bytes_reclaimed
        << ' ' << c.page_reads << ' ' << c.page_writes << '\n';
  }
  for (const MetricSample& sample : heap.metrics()->Snapshot()) {
    out << "metric " << sample.name << ' ' << sample.application << ' '
        << sample.collector << '\n';
  }

  const BufferPool& buffer = heap.buffer();
  const BufferStats io = buffer.stats();
  out << "buffer " << io.hits << ' ' << io.misses << ' ' << io.reads_app
      << ' ' << io.reads_gc << ' ' << io.writes_app << ' ' << io.writes_gc
      << " order";
  for (const PageId page : buffer.LruOrder()) {
    out << ' ' << page << (buffer.IsDirty(page) ? 'd' : 'c');
  }
  const DiskStats disk = heap.device().stats();
  out << "\ndevice " << disk.page_reads << ' ' << disk.page_writes << ' '
      << disk.sequential_transfers << ' ' << disk.random_transfers << '\n';

  const ObjectStore& store = heap.store();
  out << "store " << store.id_limit() << ' ' << store.object_count() << ' '
      << store.live_bytes() << ' ' << store.empty_partition() << "\nroots";
  for (const ObjectId root : store.roots()) out << ' ' << root.value;
  out << '\n';
  for (PartitionId p = 0; p < store.partition_count(); ++p) {
    out << "partition " << p << ' ' << store.partition(p).allocated_bytes()
        << ' ' << store.partition(p).object_count() << ' '
        << heap.index().EntryCountForPartition(p) << '\n';
  }
  for (uint64_t id = 1; id < store.id_limit(); ++id) {
    const ObjectStore::ObjectInfo* info = store.Lookup(ObjectId{id});
    if (info == nullptr) continue;
    out << "object " << id << ' ' << info->partition << ' ' << info->offset
        << ' ' << info->size << ' ' << static_cast<int>(info->flags) << ' '
        << info->root_pos;
    if (heap.weights() != nullptr) {
      out << " w" << static_cast<int>(heap.weights()->GetWeight(ObjectId{id}));
    }
    for (const ObjectId slot : info->slots) out << ' ' << slot.value;
    out << '\n';
  }
  out << "candidates";
  for (const PartitionId p : heap.CollectionCandidates()) out << ' ' << p;
  out << '\n';
  return out.str();
}

struct DenseLayoutParams {
  PolicyKind policy;
  const char* name;
  const char* policy_name;
};

// gtest writes each case's parameter into its ctest name, by default as the
// struct's raw bytes: the padding after the enum and the string pointers,
// which ASLR moves, included. Print the same dump from a copy that keeps
// only the enum and zeroes the rest; `name` is already the case's suffix.
void PrintTo(const DenseLayoutParams& params, std::ostream* os) {
  struct {
    unsigned char bytes[sizeof(DenseLayoutParams)];
  } copy{};
  std::memcpy(copy.bytes + offsetof(DenseLayoutParams, policy),
              &params.policy, sizeof params.policy);
  *os << ::testing::PrintToString(copy);
}

class DenseLayoutRoundTrip
    : public ::testing::TestWithParam<DenseLayoutParams> {};

// The snapshot of round 40 is a rerun to round 40: it must reach the
// exact state of the run it restores, and the two must continue to the
// same state 20 rounds later.
TEST_P(DenseLayoutRoundTrip, SnapshotRestoresBitIdentical) {
  SimulationConfig config = TinyConfig(11);
  config.heap.policy_name = GetParam().policy_name;

  PartialRun original = RunPartway(config, 40);
  ASSERT_EQ(original.generator->rounds_run(), 40u);
  ASSERT_EQ(original.simulator->heap().policy().name(),
            GetParam().policy_name);
  ASSERT_EQ(original.simulator->heap().policy().kind(), GetParam().policy);
  // The policy has chosen victims, so its state has a history to match.
  ASSERT_GT(original.simulator->heap().stats().collections, 0u);

  PartialRun restored = RunPartway(config, 40);
  EXPECT_EQ(StateBytes(restored), StateBytes(original));

  for (int i = 0; i < 20; ++i) {
    ASSERT_FALSE(original.generator->Done());
    ASSERT_TRUE(original.generator->RunRound(original.simulator.get()).ok());
    ASSERT_TRUE(restored.generator->RunRound(restored.simulator.get()).ok());
  }
  EXPECT_EQ(StateBytes(restored), StateBytes(original));
}

INSTANTIATE_TEST_SUITE_P(
    DensePaths, DenseLayoutRoundTrip,
    ::testing::Values(
        DenseLayoutParams{PolicyKind::kWeightedPointer, "weighted",
                          "WeightedPointer"},
        DenseLayoutParams{PolicyKind::kMutatedPartition, "mutated",
                          "MutatedPartition"},
        DenseLayoutParams{PolicyKind::kUpdatedPointer, "lrc",
                          "LeastRecentlyCollected"},
        DenseLayoutParams{PolicyKind::kUpdatedPointer, "costbenefit",
                          "CostBenefit"}),
    [](const ::testing::TestParamInfo<DenseLayoutParams>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace odbgc
