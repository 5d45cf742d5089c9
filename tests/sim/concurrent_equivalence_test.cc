// The concurrent mode's verification contract (sim/concurrent_simulator.h):
// a multi-threaded run's aggregate result must equal, field for field, the
// aggregate of its shards each replayed through the plain serial Simulator.
// Held here for all six paper policies, and across thread counts — the
// shard set is the determinism unit, so 1, 2 and 3 workers over the same
// shards must agree bitwise.

#include "sim/concurrent_simulator.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/selection_policy.h"
#include "observe/observer.h"
#include "sim/runner.h"
#include "sim/simulator.h"

namespace odbgc {
namespace {

SimulationConfig SmallConcurrent(const std::string& policy_name) {
  SimulationConfig config;
  config.heap.store.page_size = 1024;
  config.heap.store.pages_per_partition = 16;
  config.heap.buffer_pages = 16;
  config.heap.overwrite_trigger = 25;
  config.heap.policy_name = policy_name;
  config.workload.target_live_bytes = 96ull << 10;
  config.workload.total_alloc_bytes = 240ull << 10;
  config.workload.tree_nodes_min = 50;
  config.workload.tree_nodes_max = 150;
  config.workload.large_object_size = 4096;
  config.seed = 7;
  config.mutator_threads = 2;
  config.trace_shards = 4;
  return config;
}

/// The serial oracle: every shard the concurrent run would execute,
/// replayed through the plain Simulator and aggregated by the same rule.
SimulationResult SerialOracle(const SimulationConfig& config) {
  ConcurrentSimulator shape(config);
  std::vector<SimulationResult> parts;
  for (uint32_t s = 0; s < shape.shard_count(); ++s) {
    Simulator sim(shape.ShardConfig(s));
    EXPECT_TRUE(sim.Run().ok()) << "shard " << s;
    parts.push_back(sim.Finish());
  }
  SimulationResult result = ConcurrentSimulator::AggregateResults(parts);
  result.seed = config.seed;
  return result;
}

/// Field-for-field equality over the deterministic result surface
/// (everything except `measured`, which is wall-clock by definition).
void ExpectResultsIdentical(const SimulationResult& a,
                            const SimulationResult& b) {
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.policy_name, b.policy_name);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.device, b.device);
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
  EXPECT_EQ(a.heap_stats.full_collections, b.heap_stats.full_collections);
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

class ConcurrentEquivalenceTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ConcurrentEquivalenceTest, TwoThreadsMatchSerialOracle) {
  const SimulationConfig config = SmallConcurrent(GetParam());
  ConcurrentSimulator concurrent(config);
  ASSERT_TRUE(concurrent.Run().ok());
  const SimulationResult result = concurrent.Finish();
  // Guard against a vacuous pass: the sharded run must have actually
  // replayed the workload.
  EXPECT_GT(result.app_events, 0u);
  EXPECT_GE(result.bytes_allocated, config.workload.total_alloc_bytes);
  ExpectResultsIdentical(SerialOracle(config), result);
}

INSTANTIATE_TEST_SUITE_P(PaperPolicies, ConcurrentEquivalenceTest,
                         ::testing::ValuesIn(PaperPolicyNames()));

TEST(ConcurrentSimulatorTest, ResultIsThreadCountInvariant) {
  const SimulationConfig base = SmallConcurrent("MostGarbage");
  std::vector<SimulationResult> results;
  for (uint32_t threads : {1u, 2u, 3u}) {
    SimulationConfig config = base;
    config.mutator_threads = threads;  // trace_shards stays 4.
    ConcurrentSimulator sim(config);
    ASSERT_TRUE(sim.Run().ok()) << threads << " threads";
    results.push_back(sim.Finish());
  }
  ExpectResultsIdentical(results[0], results[1]);
  ExpectResultsIdentical(results[0], results[2]);
}

TEST(ConcurrentSimulatorTest, ShardSeedsAreDistinct) {
  const uint64_t base = 7;
  EXPECT_NE(ConcurrentSimulator::ShardSeed(base, 0),
            ConcurrentSimulator::ShardSeed(base, 1));
  EXPECT_NE(ConcurrentSimulator::ShardSeed(base, 0), base);
  // Stable: the equivalence contract depends on shard seeds never moving.
  EXPECT_EQ(ConcurrentSimulator::ShardSeed(base, 0),
            ConcurrentSimulator::ShardSeed(base, 0));
}

TEST(ConcurrentSimulatorTest, ShardSlicesCoverTheAllocationVolume) {
  SimulationConfig config = SmallConcurrent("Random");
  config.workload.total_alloc_bytes = 240ull * 1024 + 3;  // Non-divisible.
  ConcurrentSimulator sim(config);
  uint64_t total = 0;
  for (uint32_t s = 0; s < sim.shard_count(); ++s) {
    total += sim.ShardConfig(s).workload.total_alloc_bytes;
  }
  EXPECT_EQ(total, config.workload.total_alloc_bytes);
}

// Records the run-finished events a sharded run publishes (the service
// serializes delivery, so no locking here).
class RunFinishedRecorder : public SimObserver {
 public:
  void OnRunFinished(const RunFinishedEvent& event) override {
    events.push_back(event);
  }
  std::vector<RunFinishedEvent> events;
};

TEST(ConcurrentSimulatorTest, ObserverSeesOneTaggedRunFinishedPerShard) {
  for (uint32_t threads : {1u, 3u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    RunFinishedRecorder recorder;
    SimulationConfig config = SmallConcurrent("UpdatedPointer");
    config.mutator_threads = threads;  // trace_shards stays 4.
    config.heap.observer = &recorder;
    ConcurrentSimulator sim(config);
    ASSERT_TRUE(sim.Run().ok());
    const std::vector<SimulationResult>& shards = sim.shard_results();
    ASSERT_EQ(shards.size(), 4u);
    ASSERT_EQ(recorder.events.size(), 4u);
    std::vector<bool> seen(shards.size(), false);
    for (const RunFinishedEvent& event : recorder.events) {
      // The tag is the shard index + 1.
      ASSERT_GE(event.thread, 1u);
      ASSERT_LE(event.thread, 4u);
      EXPECT_FALSE(seen[event.thread - 1]) << "tag " << event.thread;
      seen[event.thread - 1] = true;
      const SimulationResult& shard = shards[event.thread - 1];
      EXPECT_GT(event.app_events, 0u);
      EXPECT_EQ(event.policy, shard.policy_name);
      EXPECT_EQ(event.seed, shard.seed);
      EXPECT_EQ(event.app_events, shard.app_events);
      EXPECT_EQ(event.app_io, shard.app_io);
      EXPECT_EQ(event.gc_io, shard.gc_io);
      EXPECT_EQ(event.garbage_reclaimed_bytes, shard.garbage_reclaimed_bytes);
    }
  }
}

TEST(ConcurrentSimulatorTest, RunnerRoutesMutatorThreadsInvariantly) {
  // RunExperiment dispatches mutator_threads > 1 through the concurrent
  // simulator; the experiment-level results must still be thread-count
  // invariant (same shard set either way).
  auto run = [](uint32_t mutators) {
    ExperimentSpec spec;
    spec.base = SmallConcurrent("");
    spec.base.heap.policy_name.clear();
    spec.policies = {"MostGarbage", "Random"};
    spec.num_seeds = 2;
    spec.threads = 1;
    return std::move(spec).WithMutatorThreads(mutators, 4);
  };
  auto serial = RunExperiment(run(1));
  auto threaded = RunExperiment(run(2));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
  ASSERT_EQ(serial->sets.size(), threaded->sets.size());
  for (size_t s = 0; s < serial->sets.size(); ++s) {
    ASSERT_EQ(serial->sets[s].runs.size(), threaded->sets[s].runs.size());
    for (size_t r = 0; r < serial->sets[s].runs.size(); ++r) {
      SCOPED_TRACE("set " + std::to_string(s) + " run " + std::to_string(r));
      EXPECT_GT(serial->sets[s].runs[r].app_events, 0u);
      ExpectResultsIdentical(serial->sets[s].runs[r],
                             threaded->sets[s].runs[r]);
    }
  }
}

TEST(ConcurrentSimulatorTest, RejectsMoreThreadsThanShards) {
  SimulationConfig config = SmallConcurrent("Random");
  config.mutator_threads = 8;
  config.trace_shards = 4;
  ConcurrentSimulator sim(config);
  EXPECT_EQ(sim.Run().code(), StatusCode::kInvalidArgument);
}

TEST(ConcurrentSimulatorTest, RejectsZeroThreads) {
  SimulationConfig config = SmallConcurrent("Random");
  config.mutator_threads = 0;
  ConcurrentSimulator sim(config);
  EXPECT_EQ(sim.Run().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace odbgc
