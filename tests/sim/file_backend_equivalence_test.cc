// The storage-engine acceptance check: a six-policy experiment run with
// `device=file:<path>` must produce SimulationResults whose policy-relevant
// fields are byte-identical to the same-seed run on the in-memory
// SimulatedDisk. The file backend threads real pwrite/pread, an async
// scheduler, fsync barriers and a read-ahead cache under the same
// PageDevice seam — none of which may perturb the simulated cost model.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "observe/manifest.h"
#include "sim/concurrent_simulator.h"
#include "sim/runner.h"
#include "sim/simulator.h"
#include "storage/device_registry.h"
#include "util/time_series.h"

namespace odbgc {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir =
      ::testing::TempDir() + "odbgc_file_equiv/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

SimulationConfig TinyConfig(uint64_t seed) {
  SimulationConfig config;
  config.heap.store.page_size = 1024;
  config.heap.store.pages_per_partition = 16;
  config.heap.buffer_pages = 16;
  config.heap.overwrite_trigger = 30;
  config.seed = seed;
  config.snapshot_interval = 2000;
  config.workload.target_live_bytes = 96ull << 10;
  config.workload.total_alloc_bytes = 240ull << 10;
  config.workload.tree_nodes_min = 60;
  config.workload.tree_nodes_max = 200;
  config.workload.large_object_size = 4096;
  return config;
}

void ExpectSameSeries(const TimeSeries& a, const TimeSeries& b) {
  ASSERT_EQ(a.points().size(), b.points().size());
  for (size_t i = 0; i < a.points().size(); ++i) {
    EXPECT_EQ(a.points()[i].x, b.points()[i].x) << "point " << i;
    EXPECT_EQ(a.points()[i].y, b.points()[i].y) << "point " << i;
  }
}

// Every policy-relevant field — everything the paper's tables and the
// manifests' result section draw on. `device` (the backend's identity)
// and `measured` (real wall-clock I/O) are intentionally not compared:
// they are exactly what the two runs legitimately differ in.
void ExpectPolicyFieldsIdentical(const SimulationResult& file,
                                 const SimulationResult& mem) {
  EXPECT_EQ(file.policy, mem.policy);
  EXPECT_EQ(file.seed, mem.seed);
  EXPECT_EQ(file.app_events, mem.app_events);
  EXPECT_EQ(file.app_io, mem.app_io);
  EXPECT_EQ(file.gc_io, mem.gc_io);
  EXPECT_EQ(file.max_storage_bytes, mem.max_storage_bytes);
  EXPECT_EQ(file.max_partitions, mem.max_partitions);
  EXPECT_EQ(file.final_partitions, mem.final_partitions);
  EXPECT_EQ(file.collections, mem.collections);
  EXPECT_EQ(file.garbage_reclaimed_bytes, mem.garbage_reclaimed_bytes);
  EXPECT_EQ(file.live_bytes_copied, mem.live_bytes_copied);
  EXPECT_EQ(file.unreclaimed_garbage_bytes, mem.unreclaimed_garbage_bytes);
  EXPECT_EQ(file.final_live_bytes, mem.final_live_bytes);
  EXPECT_EQ(file.remset_entries, mem.remset_entries);
  EXPECT_EQ(file.bytes_allocated, mem.bytes_allocated);
  EXPECT_EQ(file.pointer_overwrites, mem.pointer_overwrites);
  // Same DiskCostParams surface: the estimate must match to the bit.
  EXPECT_EQ(file.estimated_device_time_ms, mem.estimated_device_time_ms);
  ExpectSameSeries(file.unreclaimed_garbage_kb, mem.unreclaimed_garbage_kb);
  ExpectSameSeries(file.database_size_kb, mem.database_size_kb);
  EXPECT_EQ(file.heap_stats.pointer_stores, mem.heap_stats.pointer_stores);
  EXPECT_EQ(file.heap_stats.objects_allocated,
            mem.heap_stats.objects_allocated);
  EXPECT_EQ(file.heap_stats.full_collections,
            mem.heap_stats.full_collections);
  EXPECT_EQ(file.buffer_stats.hits, mem.buffer_stats.hits);
  EXPECT_EQ(file.buffer_stats.misses, mem.buffer_stats.misses);
  EXPECT_EQ(file.buffer_stats.reads_app, mem.buffer_stats.reads_app);
  EXPECT_EQ(file.buffer_stats.reads_gc, mem.buffer_stats.reads_gc);
  EXPECT_EQ(file.buffer_stats.writes_app, mem.buffer_stats.writes_app);
  EXPECT_EQ(file.buffer_stats.writes_gc, mem.buffer_stats.writes_gc);
  EXPECT_EQ(file.disk_stats.page_reads, mem.disk_stats.page_reads);
  EXPECT_EQ(file.disk_stats.page_writes, mem.disk_stats.page_writes);
  EXPECT_EQ(file.disk_stats.sequential_transfers,
            mem.disk_stats.sequential_transfers);
  EXPECT_EQ(file.disk_stats.random_transfers,
            mem.disk_stats.random_transfers);
}

SimulationResult RunOne(SimulationConfig config) {
  Simulator simulator(config);
  EXPECT_TRUE(simulator.Run().ok());
  return simulator.Finish();
}

TEST(FileBackendEquivalenceTest, SixPoliciesMatchInMemoryRuns) {
  const std::string dir = FreshDir("six_policies");
  for (const std::string& policy : PaperPolicyNames()) {
    SimulationConfig mem_config = TinyConfig(/*seed=*/11);
    mem_config.heap.policy_name = policy;
    const SimulationResult mem = RunOne(mem_config);

    SimulationConfig file_config = mem_config;
    file_config.heap.device_spec = "file:" + dir + "/" + policy + ".odb";
    const SimulationResult file = RunOne(file_config);

    EXPECT_EQ(file.device, DeviceKind::kFile) << policy;
    EXPECT_EQ(mem.device, DeviceKind::kSimulatedDisk);
    ExpectPolicyFieldsIdentical(file, mem);

    // And the file run carries real measurements on the side.
    EXPECT_TRUE(file.measured.measured) << policy;
    EXPECT_GT(file.measured.writes, 0u) << policy;
    EXPECT_FALSE(mem.measured.measured);
  }
  std::filesystem::remove_all(dir);
}

TEST(FileBackendEquivalenceTest, ReadAheadAndThreadsDoNotPerturbResults) {
  const std::string dir = FreshDir("knobs");
  SimulationConfig base = TinyConfig(/*seed=*/5);
  base.heap.policy_name = "UpdatedPointer";
  const SimulationResult reference = RunOne(base);

  struct Knobs {
    const char* name;
    size_t readahead;
    int threads;
    bool direct_io;
  };
  for (const Knobs& k :
       {Knobs{"no_readahead", 0, 1, false}, Knobs{"threads8", 64, 8, false},
        Knobs{"direct", 64, 2, true}}) {
    SimulationConfig config = base;
    config.heap.device_spec =
        "file:" + dir + "/" + std::string(k.name) + ".odb";
    config.heap.file_device.readahead_pages = k.readahead;
    config.heap.file_device.io_threads = k.threads;
    config.heap.file_device.direct_io = k.direct_io;
    ExpectPolicyFieldsIdentical(RunOne(config), reference);
  }
  std::filesystem::remove_all(dir);
}

// A sharded run hosts its shards as one fleet: on file devices it must
// still match the simulated disk, with every shard on its own file.
TEST(FileBackendEquivalenceTest, ShardedRunMatchesInMemoryRun) {
  const std::string dir = FreshDir("sharded");
  SimulationConfig mem_config = TinyConfig(/*seed=*/3);
  mem_config.heap.policy_name = "UpdatedPointer";
  mem_config.mutator_threads = 2;
  mem_config.trace_shards = 4;
  ConcurrentSimulator mem_run(mem_config);
  ASSERT_TRUE(mem_run.Run().ok());
  const SimulationResult mem = mem_run.Finish();

  SimulationConfig file_config = mem_config;
  file_config.heap.device_spec = "file:" + dir + "/sharded.odb";
  ConcurrentSimulator file_run(file_config);
  ASSERT_TRUE(file_run.Run().ok());
  const SimulationResult file = file_run.Finish();

  EXPECT_EQ(file.device, DeviceKind::kFile);
  EXPECT_GT(file.app_events, 0u);
  ExpectPolicyFieldsIdentical(file, mem);
  EXPECT_TRUE(file.measured.measured);
  EXPECT_GT(file.measured.writes, 0u);

  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) ++files;
  }
  EXPECT_EQ(files, 4u);
  std::filesystem::remove_all(dir);
}

TEST(FileBackendEquivalenceTest, ExperimentManifestsCarryMeasuredSection) {
  const std::string dir = FreshDir("manifests");
  ExperimentSpec spec;
  spec.base = TinyConfig(/*seed=*/1);
  spec.base.heap.device_spec = "file:" + dir + "/exp.odb";
  spec.policies = {"MostGarbage", "Random"};
  spec.num_seeds = 2;
  spec.manifest_dir = dir + "/manifests";

  auto experiment = RunExperiment(spec);
  ASSERT_TRUE(experiment.ok()) << experiment.status().ToString();

  for (const std::string& policy : spec.policies) {
    for (uint64_t seed = spec.first_seed;
         seed < spec.first_seed + spec.num_seeds; ++seed) {
      const std::string path =
          spec.manifest_dir + "/" + ManifestFileName(policy, seed);
      auto manifest = LoadManifestFile(path);
      ASSERT_TRUE(manifest.ok()) << path << ": "
                                 << manifest.status().ToString();
      // Config names the backend, not the per-run path (digests must stay
      // comparable across the experiment axes)...
      const Json* config = manifest->Get("config");
      ASSERT_NE(config, nullptr);
      const Json* heap = config->Get("heap");
      ASSERT_NE(heap, nullptr);
      ASSERT_NE(heap->Get("device"), nullptr);
      EXPECT_EQ(heap->Get("device")->string_value(), "file");
      // ...while the measured section records the actual backing file.
      const Json* measured = manifest->Get("measured");
      ASSERT_NE(measured, nullptr) << path;
      ASSERT_NE(measured->Get("device_spec"), nullptr);
      EXPECT_NE(measured->Get("device_spec")->string_value().find(policy),
                std::string::npos);
      EXPECT_GT(measured->Get("writes")->uint_value(), 0u);
      EXPECT_GE(measured->Get("wall_ms")->double_value(), 0.0);
    }
  }
  std::filesystem::remove_all(dir);
}

// Byte-level determinism of the medium itself: two identical runs leave
// byte-identical partition files behind (FileDevice::WritePages's
// disjoint-range guarantee, surfaced end to end).
TEST(FileBackendEquivalenceTest, IdenticalRunsLeaveIdenticalFiles) {
  const std::string dir = FreshDir("file_bytes");
  std::vector<std::string> paths;
  for (const char* name : {"a", "b"}) {
    SimulationConfig config = TinyConfig(/*seed=*/7);
    config.heap.policy_name = "MutatedPartition";
    config.heap.device_spec = "file:" + dir + "/" + name + ".odb";
    config.heap.file_device.io_threads = name[0] == 'a' ? 1 : 4;
    (void)RunOne(config);
    paths.push_back(dir + "/" + name + ".odb");
  }
  std::ifstream a(paths[0], std::ios::binary);
  std::ifstream b(paths[1], std::ios::binary);
  ASSERT_TRUE(a.good() && b.good());
  const std::string bytes_a((std::istreambuf_iterator<char>(a)), {});
  const std::string bytes_b((std::istreambuf_iterator<char>(b)), {});
  EXPECT_EQ(bytes_a.size(), bytes_b.size());
  EXPECT_TRUE(bytes_a == bytes_b);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace odbgc
