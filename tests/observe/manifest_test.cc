// Run manifests: schema validity for every registered policy, canonical
// byte-stability, digest semantics, file round-trips, and the runner's
// and the service's manifest emission.

#include "observe/manifest.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <utility>

#include "service/heap_service.h"
#include "sim/runner.h"
#include "sim/simulator.h"
#include "sim/spec.h"

namespace odbgc {
namespace {

SimulationConfig TinyConfig(uint64_t seed = 1) {
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

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "odbgc_manifest_test/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string PolicyKindOf(const Json& manifest) {
  const Json* heap = manifest.Get("config")->Get("heap");
  return heap->Get("policy_kind")->string_value();
}

SimulationResult RunOnce(SimulationConfig config) {
  Simulator simulator(config);
  EXPECT_TRUE(simulator.Run().ok());
  return simulator.Finish();
}

TEST(ManifestTest, EveryRegisteredPolicyProducesAValidManifest) {
  for (const std::string& name : RegisteredPolicyNames()) {
    SimulationConfig config = TinyConfig();
    config.heap.policy_name = name;
    const SimulationResult result = RunOnce(config);
    EXPECT_EQ(result.policy_name, name);

    const Json manifest = BuildManifest(config, result);
    const Status valid = ValidateManifest(manifest);
    EXPECT_TRUE(valid.ok()) << name << ": " << valid.ToString();
    EXPECT_EQ(manifest.Get("policy")->string_value(), name);
    EXPECT_EQ(manifest.Get("seed")->uint_value(), config.seed);
  }
}

TEST(ManifestTest, EmitParseReEmitIsByteIdentical) {
  SimulationConfig config = TinyConfig();
  config.heap.policy_name = "UpdatedPointer";
  const Json manifest = BuildManifest(config, RunOnce(config));

  const std::string first = manifest.Dump();
  auto parsed = Json::Parse(first);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Dump(), first);
}

// Three runs that exercise partition collections, full collections,
// weights and depth-first copying. A change to any simulated result of
// them, or to how the result section serializes, moves these pinned
// values; perfbench's own digest of the same manifests agrees with them.
TEST(ManifestTest, ResultDigestIsPinned) {
  SimulationConfig updated = TinyConfig();
  updated.heap.policy_name = "UpdatedPointer";
  EXPECT_EQ(ResultDigest(BuildManifest(updated, RunOnce(updated))),
            0xb56bf39fu);

  SimulationConfig full = TinyConfig();
  full.heap.policy_name = "MostGarbage";
  full.heap.full_collection_interval = 2;
  const SimulationResult full_result = RunOnce(full);
  EXPECT_EQ(full_result.heap_stats.full_collections, 2u);
  EXPECT_EQ(ResultDigest(BuildManifest(full, full_result)), 0xae8b42bdu);

  SimulationConfig depth_first = TinyConfig();
  depth_first.heap.policy_name = "WeightedPointer";
  depth_first.heap.traversal = TraversalOrder::kDepthFirst;
  EXPECT_EQ(ResultDigest(BuildManifest(depth_first, RunOnce(depth_first))),
            0xc603c539u);

  // A parsed manifest digests like the one it was written from.
  auto parsed = Json::Parse(BuildManifest(updated, RunOnce(updated)).Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(ResultDigest(*parsed), 0xb56bf39fu);
}

TEST(ManifestTest, DigestIgnoresExperimentAxesAndDurabilityKnobs) {
  SimulationConfig config = TinyConfig();
  const uint32_t digest = ConfigDigest(config);

  // Seed and policy are the experiment's axes; knobs that change only how
  // a run is carried out, such as wall-clock profiling, do not change what
  // it computes. None may move the digest.
  SimulationConfig variant = config;
  variant.seed = 99;
  variant.heap.policy_name = "Random";
  variant.heap.policy = PolicyKind::kRandom;
  variant.heap.profile_hot_paths = true;
  EXPECT_EQ(ConfigDigest(variant), digest);

  SimulationConfig changed = config;
  changed.heap.overwrite_trigger += 1;
  EXPECT_NE(ConfigDigest(changed), digest);
}

TEST(ManifestTest, FileRoundTripPreservesBytes) {
  SimulationConfig config = TinyConfig();
  config.heap.policy_name = "Random";
  const Json manifest = BuildManifest(config, RunOnce(config));

  const std::string dir = FreshDir("roundtrip");
  const std::string path = dir + "/" + ManifestFileName("Random", 1);
  EXPECT_EQ(ManifestFileName("Random", 1), "Random-s1.json");

  ASSERT_TRUE(WriteManifestFile(path, manifest).ok());
  auto loaded = LoadManifestFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->Dump(), manifest.Dump());
}

TEST(ManifestTest, ValidateRejectsBrokenDocuments) {
  SimulationConfig config = TinyConfig();
  config.heap.policy_name = "Random";
  Json manifest = BuildManifest(config, RunOnce(config));

  Json wrong_version = manifest;
  wrong_version.Set("schema_version", Json::UInt(kManifestSchemaVersion + 1));
  EXPECT_EQ(ValidateManifest(wrong_version).code(),
            StatusCode::kInvalidArgument);

  Json missing_field = manifest;
  missing_field.object().erase("result");
  EXPECT_FALSE(ValidateManifest(missing_field).ok());

  Json mismatched = manifest;
  mismatched.Set("policy", Json::Str("MostGarbage"));
  EXPECT_FALSE(ValidateManifest(mismatched).ok());

  EXPECT_FALSE(ValidateManifest(Json::Arr()).ok());
}

TEST(ManifestTest, RunnerEmitsOneManifestPerRun) {
  const std::string dir = FreshDir("runner");
  ExperimentSpec spec;
  spec.base = TinyConfig();
  spec.policies = {"UpdatedPointer", "Random"};
  spec.num_seeds = 2;
  spec.manifest_dir = dir;

  auto experiment = RunExperiment(spec);
  ASSERT_TRUE(experiment.ok()) << experiment.status().ToString();

  for (const std::string& policy : spec.policies) {
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      const std::string path = dir + "/" + ManifestFileName(policy, seed);
      auto manifest = LoadManifestFile(path);
      ASSERT_TRUE(manifest.ok()) << path << ": "
                                 << manifest.status().ToString();
      EXPECT_EQ(manifest->Get("policy")->string_value(), policy);
      EXPECT_EQ(manifest->Get("seed")->uint_value(), seed);
      // The kind that ran, not the unset enum's default.
      EXPECT_EQ(PolicyKindOf(*manifest), policy);
    }
  }

  // The emitted manifest is exactly BuildManifest of the run: rebuild one
  // from the returned results and compare bytes.
  SimulationConfig config = spec.base;
  config.heap.policy_name = "Random";
  config.seed = 2;
  const PolicyRuns* set = experiment->Find(std::string("Random"));
  ASSERT_NE(set, nullptr);
  const Json rebuilt = BuildManifest(config, set->runs[1]);
  auto emitted = LoadManifestFile(dir + "/" + ManifestFileName("Random", 2));
  ASSERT_TRUE(emitted.ok());
  EXPECT_EQ(emitted->Dump(), rebuilt.Dump());
}

// A service tenant's manifest names its tenant, carries the service
// section, and records the policy kind the tenant ran.
TEST(ManifestTest, ServiceWritesOneManifestPerTenant) {
  const std::string dir = FreshDir("service");
  ServiceSpec spec = ServiceSpec::Hosting(
      {TenantSpec::Base(TinyConfig()).Named("t0").WithPolicy("MostGarbage")});
  ASSERT_TRUE(RunService(std::move(spec).WithManifestDir(dir)).ok());

  auto manifest =
      LoadManifestFile(dir + "/t0-" + ManifestFileName("MostGarbage", 1));
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_NE(manifest->Get("service"), nullptr);
  EXPECT_EQ(PolicyKindOf(*manifest), "MostGarbage");
}

}  // namespace
}  // namespace odbgc
