// TenantSpec / ServiceSpec fluent builders (sim/spec.h): every setter
// lands in the right nested-struct field, Build() hands back the wrapped
// SimulationConfig, and the defaults match the deprecated direct-struct
// paths so the two construction surfaces stay interchangeable.

#include "sim/spec.h"

#include <gtest/gtest.h>

#include "sim/config.h"

namespace odbgc {
namespace {

TEST(TenantSpecTest, BaseWrapsThePaperConfigUnchanged) {
  const SimulationConfig expected = PaperBaseConfig();
  const SimulationConfig built = TenantSpec::Base().Build();
  EXPECT_EQ(built.heap.policy_name, expected.heap.policy_name);
  EXPECT_EQ(built.heap.buffer_pages, expected.heap.buffer_pages);
  EXPECT_EQ(built.heap.store.pages_per_partition,
            expected.heap.store.pages_per_partition);
  EXPECT_EQ(built.seed, expected.seed);
  EXPECT_EQ(built.workload.total_alloc_bytes,
            expected.workload.total_alloc_bytes);
}

TEST(TenantSpecTest, HeapKnobsLandInHeapOptions) {
  const SimulationConfig config = TenantSpec::Base()
                                      .WithPolicy("MostGarbage")
                                      .WithBufferPages(48)
                                      .WithPartitionPages(32)
                                      .WithTrigger(75)
                                      .WithDevice("ssd")
                                      .Build();
  EXPECT_EQ(config.heap.policy_name, "MostGarbage");
  EXPECT_EQ(config.heap.buffer_pages, 48u);
  EXPECT_EQ(config.heap.store.pages_per_partition, 32u);
  EXPECT_EQ(config.heap.overwrite_trigger, 75u);
  EXPECT_EQ(config.heap.device_spec, "ssd");
}

TEST(TenantSpecTest, WorkloadKnobsLandInWorkloadAndTopLevel) {
  const SimulationConfig config = TenantSpec::Base()
                                      .WithSeed(42)
                                      .WithTotalAllocationMb(8)
                                      .WithWarmStart()
                                      .WithSnapshotInterval(500)
                                      .WithMutatorThreads(4, 8)
                                      .Build();
  EXPECT_EQ(config.seed, 42u);
  EXPECT_EQ(config.workload.total_alloc_bytes, 8ull << 20);
  EXPECT_TRUE(config.warm_start);
  EXPECT_EQ(config.snapshot_interval, 500u);
  EXPECT_EQ(config.mutator_threads, 4u);
  EXPECT_EQ(config.trace_shards, 8u);
}

TEST(TenantSpecTest, TotalAllocationScalesLiveTargetProportionally) {
  const SimulationConfig base = PaperBaseConfig();
  const SimulationConfig scaled =
      TenantSpec::Base()
          .WithTotalAllocation(base.workload.total_alloc_bytes * 2)
          .Build();
  EXPECT_EQ(scaled.workload.total_alloc_bytes,
            base.workload.total_alloc_bytes * 2);
  EXPECT_EQ(scaled.workload.target_live_bytes,
            base.workload.target_live_bytes * 2);
}

TEST(TenantSpecTest, NamedSetsTheServiceIdentity) {
  const TenantSpec spec =
      TenantSpec::Base().Named("oltp").WithPolicy("Random");
  EXPECT_EQ(spec.name, "oltp");
  EXPECT_EQ(spec.config.heap.policy_name, "Random");
}

TEST(TenantSpecTest, DefaultNameIsEmptyForServiceAssignment) {
  EXPECT_TRUE(TenantSpec::Base().name.empty());
}

TEST(ServiceSpecTest, DefaultsMatchTheEquivalenceContract) {
  const ServiceSpec spec = ServiceSpec::Hosting({});
  EXPECT_EQ(spec.threads, 1u);
  EXPECT_EQ(spec.shared_frame_budget, 0u);  // Sum of tenant caps.
  EXPECT_DOUBLE_EQ(spec.admission_watermark, 0.0);  // Admission off.
  EXPECT_TRUE(spec.manifest_dir.empty());
  EXPECT_EQ(spec.observer, nullptr);
  EXPECT_EQ(spec.events_per_batch, 256u);
}

TEST(ServiceSpecTest, BuilderAssemblesAFleet) {
  const ServiceSpec spec =
      ServiceSpec::Hosting({TenantSpec::Base().Named("a")})
          .AddTenant(TenantSpec::Base().Named("b").WithSeed(9))
          .WithThreads(4)
          .WithFrameBudget(96)
          .WithWatermark(0.5)
          .WithManifestDir("/tmp/out")
          .WithEventsPerBatch(128);
  ASSERT_EQ(spec.tenants.size(), 2u);
  EXPECT_EQ(spec.tenants[0].name, "a");
  EXPECT_EQ(spec.tenants[1].name, "b");
  EXPECT_EQ(spec.tenants[1].config.seed, 9u);
  EXPECT_EQ(spec.threads, 4u);
  EXPECT_EQ(spec.shared_frame_budget, 96u);
  EXPECT_DOUBLE_EQ(spec.admission_watermark, 0.5);
  EXPECT_EQ(spec.manifest_dir, "/tmp/out");
  EXPECT_EQ(spec.events_per_batch, 128u);
}

}  // namespace
}  // namespace odbgc
