// RunExperiment must be bit-deterministic across thread counts: a parallel
// run is only trustworthy if every field of every SimulationResult —
// counters, component stats, metric samples, time series — matches the
// serial run exactly. This covers the SSD backend too.

#include <gtest/gtest.h>

#include "sim/runner.h"
#include "util/time_series.h"

namespace odbgc {
namespace {

ExperimentSpec TinySpec() {
  ExperimentSpec spec;
  spec.base.heap.store.page_size = 1024;
  spec.base.heap.store.pages_per_partition = 16;
  spec.base.heap.buffer_pages = 16;
  spec.base.heap.overwrite_trigger = 25;
  spec.base.snapshot_interval = 1000;  // Exercise the time series too.
  spec.base.workload.target_live_bytes = 64ull << 10;
  spec.base.workload.total_alloc_bytes = 160ull << 10;
  spec.base.workload.tree_nodes_min = 50;
  spec.base.workload.tree_nodes_max = 150;
  spec.base.workload.large_object_size = 4096;
  spec.policies = {"MostGarbage", "Random", "NoCollection"};
  spec.num_seeds = 3;
  spec.first_seed = 10;
  return spec;
}

void ExpectSameSeries(const TimeSeries& a, const TimeSeries& b) {
  ASSERT_EQ(a.points().size(), b.points().size());
  for (size_t i = 0; i < a.points().size(); ++i) {
    EXPECT_EQ(a.points()[i].x, b.points()[i].x) << "point " << i;
    EXPECT_EQ(a.points()[i].y, b.points()[i].y) << "point " << i;
  }
}

void ExpectFieldIdentical(const SimulationResult& a,
                          const SimulationResult& b) {
  EXPECT_EQ(a.policy, b.policy);
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
  ExpectSameSeries(a.unreclaimed_garbage_kb, b.unreclaimed_garbage_kb);
  ExpectSameSeries(a.database_size_kb, b.database_size_kb);
  EXPECT_EQ(a.heap_stats.pointer_stores, b.heap_stats.pointer_stores);
  EXPECT_EQ(a.heap_stats.objects_allocated, b.heap_stats.objects_allocated);
  EXPECT_EQ(a.heap_stats.full_collections, b.heap_stats.full_collections);
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
  // The whole metrics registry, row by row.
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (size_t i = 0; i < a.metrics.size(); ++i) {
    EXPECT_EQ(a.metrics[i].name, b.metrics[i].name) << "sample " << i;
    EXPECT_EQ(a.metrics[i].application, b.metrics[i].application)
        << a.metrics[i].name;
    EXPECT_EQ(a.metrics[i].collector, b.metrics[i].collector)
        << a.metrics[i].name;
  }
}

void ExpectExperimentsIdentical(const ExperimentSpec& spec) {
  ExperimentSpec serial = spec;
  serial.threads = 1;
  ExperimentSpec parallel = spec;
  parallel.threads = 4;

  auto a = RunExperiment(serial);
  auto b = RunExperiment(parallel);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a->sets.size(), b->sets.size());
  for (size_t s = 0; s < a->sets.size(); ++s) {
    ASSERT_EQ(a->sets[s].policy, b->sets[s].policy);
    ASSERT_EQ(a->sets[s].runs.size(), b->sets[s].runs.size());
    for (size_t r = 0; r < a->sets[s].runs.size(); ++r) {
      SCOPED_TRACE("policy set " + std::to_string(s) + " run " +
                   std::to_string(r));
      ExpectFieldIdentical(a->sets[s].runs[r], b->sets[s].runs[r]);
    }
  }
}

TEST(RunnerDeterminismTest, ParallelMatchesSerialFieldForField) {
  ExpectExperimentsIdentical(TinySpec());
}

TEST(RunnerDeterminismTest, ParallelMatchesSerialOnSsd) {
  ExperimentSpec spec = TinySpec();
  spec.base.heap.device = DeviceKind::kSsd;
  spec.base.heap.ssd_cost.pages_per_block = 8;
  ExpectExperimentsIdentical(spec);
}

}  // namespace
}  // namespace odbgc
