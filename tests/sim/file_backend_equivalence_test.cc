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
#include "service/heap_service.h"
#include "sim/runner.h"
#include "sim/simulator.h"
#include "sim/spec.h"
#include "storage/device_registry.h"
#include "support/result_equality.h"

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
    ExpectResultsIdentical(file, mem);

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
    ExpectResultsIdentical(RunOne(config), reference);
  }
  std::filesystem::remove_all(dir);
}

// A 4-tenant fleet on two threads, on file devices, must match the same
// fleet on the simulated disk tenant for tenant, with every tenant on its
// own file.
TEST(FileBackendEquivalenceTest, FleetMatchesInMemoryFleet) {
  const std::string dir = FreshDir("fleet");
  const auto run_fleet = [](const std::string& device_spec) {
    ServiceSpec spec;
    for (uint64_t i = 0; i < 4; ++i) {
      SimulationConfig config = TinyConfig(/*seed=*/3 + i);
      config.heap.policy_name = "UpdatedPointer";
      config.heap.device_spec = device_spec;
      spec.tenants.push_back(
          TenantSpec::Base(config).Named("t" + std::to_string(i)));
    }
    return RunService(std::move(spec).WithThreads(2));
  };
  auto mem = run_fleet("");
  auto file = run_fleet("file:" + dir + "/fleet.odb");
  ASSERT_TRUE(mem.status().ok()) << mem.status().message();
  ASSERT_TRUE(file.status().ok()) << file.status().message();

  ASSERT_EQ(mem->tenants.size(), 4u);
  ASSERT_EQ(file->tenants.size(), 4u);
  for (size_t t = 0; t < 4; ++t) {
    SCOPED_TRACE("tenant " + std::to_string(t));
    const SimulationResult& on_file = file->tenants[t];
    EXPECT_EQ(on_file.device, DeviceKind::kFile);
    EXPECT_GT(on_file.app_events, 0u);
    ExpectResultsIdentical(on_file, mem->tenants[t]);
    EXPECT_TRUE(on_file.measured.measured);
    EXPECT_GT(on_file.measured.writes, 0u);
  }

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
