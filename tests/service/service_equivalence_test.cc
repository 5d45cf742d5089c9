// The multi-tenant service's verification contract (service/heap_service.h):
//
//  1. Equivalence — with admission control off, a 1-tenant service run is
//     bitwise identical to a standalone Simulator run of the same config,
//     for all six paper policies. The service adds scheduling, never
//     semantics.
//  2. Thread invariance — a 16-tenant pressured service produces
//     identical per-tenant results and service counters under 1, 2 and 4
//     worker threads: tenants are the determinism units, threads are
//     parallelism only. Every tenant heap passes the heap invariant check
//     after each of its collections.
//  3. Admission bound — with a watermark armed and no forced admissions,
//     post-round shared-pool occupancy never exceeds
//     watermark + one tenant's allowance.
//  4. Progress — a fleet that can never shed (NoCollection) still runs to
//     completion through forced admissions.

#include "service/heap_service.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/selection_policy.h"
#include "sim/simulator.h"
#include "sim/spec.h"
#include "support/heap_invariants.h"

namespace odbgc {
namespace {

SimulationConfig SmallTenant(const std::string& policy_name, uint64_t seed) {
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
  config.seed = seed;
  return config;
}

/// Field-for-field equality over the deterministic result surface
/// (everything except `measured`/`run_wall_seconds`, wall-clock by
/// definition) — the concurrent-equivalence comparator.
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

class ServiceEquivalenceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ServiceEquivalenceTest, SingleTenantMatchesStandaloneSimulator) {
  const SimulationConfig config = SmallTenant(GetParam(), 7);

  Simulator solo(config);
  ASSERT_TRUE(solo.Run().ok());
  const SimulationResult expected = solo.Finish();

  auto result = RunService(
      ServiceSpec::Hosting({TenantSpec::Base(config).Named("only")}));
  ASSERT_TRUE(result.status().ok()) << result.status().message();

  // Guard against a vacuous pass.
  EXPECT_GT(expected.app_events, 0u);
  ASSERT_EQ(result->tenants.size(), 1u);
  ExpectResultsIdentical(expected, result->tenants[0]);
  // No watermark -> admission control and the cross-tenant scheduler
  // never engage: that is what makes the equivalence hold.
  EXPECT_EQ(result->forced_collections, 0u);
  EXPECT_EQ(result->admission_stalls, 0u);
  EXPECT_EQ(result->forced_admissions, 0u);
}

INSTANTIATE_TEST_SUITE_P(PaperPolicies, ServiceEquivalenceTest,
                         ::testing::ValuesIn(PaperPolicyNames()));

ServiceSpec PressuredFleet(size_t tenants, uint32_t threads) {
  const std::vector<std::string>& policies = PaperPolicyNames();
  ServiceSpec spec;
  for (size_t i = 0; i < tenants; ++i) {
    // Skip NoCollection (index 0): a shedding-capable fleet, mixed
    // policies, distinct seeds.
    const std::string& policy = policies[1 + i % (policies.size() - 1)];
    spec.tenants.push_back(TenantSpec::Base(SmallTenant(policy, 100 + i))
                               .Named("t" + std::to_string(i)));
  }
  uint64_t cap_sum = 0;
  for (const TenantSpec& tenant : spec.tenants) {
    cap_sum += tenant.config.heap.buffer_pages;
  }
  return std::move(spec)
      .WithThreads(threads)
      .WithFrameBudget(cap_sum * 3 / 4)  // Overcommitted: pressure is real.
      .WithWatermark(0.5);
}

// Checks a tenant heap's invariants (support/heap_invariants.h) after
// each of its collections, trigger-driven and forced alike. Events arrive
// one at a time, on the thread running the tenant that published them.
class TenantInvariantObserver : public SimObserver {
 public:
  void Watch(const HeapService* service) { service_ = service; }
  void OnCollection(const CollectionEvent& event) override {
    ++checks_;
    const size_t tenant = event.thread - 1;
    EXPECT_TRUE(HeapInvariantsHold(*service_->tenant_heap(tenant)))
        << "tenant " << tenant << " after collection " << event.ordinal;
  }
  uint64_t checks() const { return checks_; }

 private:
  const HeapService* service_ = nullptr;
  uint64_t checks_ = 0;
};

TEST(ServiceInvarianceTest, SixteenTenantsAreThreadCountInvariant) {
  std::vector<ServiceResult> results;
  for (uint32_t threads : {1u, 2u, 4u}) {
    TenantInvariantObserver observer;
    ServiceSpec spec = PressuredFleet(16, threads);
    spec.observer = &observer;
    HeapService service(std::move(spec));
    observer.Watch(&service);
    const Status ran = service.Run();
    ASSERT_TRUE(ran.ok()) << ran.message();
    results.push_back(service.Finish());
    EXPECT_GT(observer.checks(), 0u);
    EXPECT_EQ(observer.checks(), results.back().aggregate.collections);
  }
  const ServiceResult& base = results.front();
  EXPECT_GT(base.aggregate.app_events, 0u);
  for (size_t r = 1; r < results.size(); ++r) {
    const ServiceResult& other = results[r];
    ASSERT_EQ(base.tenants.size(), other.tenants.size());
    for (size_t t = 0; t < base.tenants.size(); ++t) {
      ExpectResultsIdentical(base.tenants[t], other.tenants[t]);
    }
    ExpectResultsIdentical(base.aggregate, other.aggregate);
    // The service-level schedule is part of the deterministic surface.
    EXPECT_EQ(base.rounds, other.rounds);
    EXPECT_EQ(base.forced_collections, other.forced_collections);
    EXPECT_EQ(base.admission_stalls, other.admission_stalls);
    EXPECT_EQ(base.forced_admissions, other.forced_admissions);
    EXPECT_EQ(base.peak_occupancy_frames, other.peak_occupancy_frames);
  }
}

TEST(ServiceAdmissionTest, OccupancyStaysUnderWatermarkPlusOneAllowance) {
  ServiceSpec spec = PressuredFleet(8, 2);
  uint64_t max_cap = 0;
  for (const TenantSpec& tenant : spec.tenants) {
    max_cap = std::max<uint64_t>(max_cap, tenant.config.heap.buffer_pages);
  }
  auto result = RunService(std::move(spec));
  ASSERT_TRUE(result.status().ok()) << result.status().message();

  // The pressure must have been real for the bound to mean anything.
  EXPECT_GT(result->admission_stalls, 0u);
  EXPECT_GT(result->watermark_frames, 0u);
  // The fleet can shed, so the progress fallback never fired -- which
  // makes the bound below unconditional.
  EXPECT_EQ(result->forced_admissions, 0u);
  EXPECT_LE(result->peak_occupancy_frames,
            result->watermark_frames + max_cap);
  // And the scheduler actually worked for its living.
  EXPECT_GT(result->forced_collections, 0u);
}

TEST(ServiceProgressTest, NoCollectionFleetStillFinishes) {
  // NoCollection tenants can never shed residency; under a watermark the
  // progress fallback must carry the fleet to completion anyway.
  ServiceSpec spec;
  for (size_t i = 0; i < 2; ++i) {
    spec.tenants.push_back(
        TenantSpec::Base(SmallTenant("NoCollection", 40 + i))
            .Named("nc" + std::to_string(i)));
  }
  auto result = RunService(std::move(spec).WithFrameBudget(16).WithWatermark(0.5));
  ASSERT_TRUE(result.status().ok()) << result.status().message();
  EXPECT_EQ(result->tenants.size(), 2u);
  for (const SimulationResult& tenant : result->tenants) {
    EXPECT_GT(tenant.app_events, 0u);
    EXPECT_EQ(tenant.collections, 0u);
  }
  EXPECT_GT(result->forced_admissions, 0u);
}

TEST(ServiceValidationTest, RejectsMisSpecifiedServices) {
  EXPECT_FALSE(RunService(ServiceSpec{}).status().ok());  // No tenants.

  {
    ServiceSpec spec = ServiceSpec::Hosting(
        {TenantSpec::Base(SmallTenant("UpdatedPointer", 1))});
    spec.admission_watermark = 1.5;
    EXPECT_FALSE(RunService(std::move(spec)).status().ok());
  }
  {
    ServiceSpec spec = ServiceSpec::Hosting(
        {TenantSpec::Base(SmallTenant("UpdatedPointer", 1)).Named("dup"),
         TenantSpec::Base(SmallTenant("Random", 2)).Named("dup")});
    EXPECT_FALSE(RunService(std::move(spec)).status().ok());
  }
  {
    SimulationConfig config = SmallTenant("UpdatedPointer", 1);
    config.heap.policy_name = "NoSuchPolicy";
    EXPECT_FALSE(
        RunService(ServiceSpec::Hosting({TenantSpec::Base(config)}))
            .status()
            .ok());
  }
  {
    // The service is the concurrency layer; nested concurrent tenants are
    // a specification error.
    SimulationConfig config = SmallTenant("UpdatedPointer", 1);
    config.mutator_threads = 2;
    config.trace_shards = 2;
    EXPECT_FALSE(
        RunService(ServiceSpec::Hosting({TenantSpec::Base(config)}))
            .status()
            .ok());
  }
}

}  // namespace
}  // namespace odbgc
