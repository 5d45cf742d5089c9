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
//  5. Observation — one observer watching a fleet sees each tenant's run
//     finish exactly once, tagged with the tenant's index + 1, at any
//     thread count.

#include "service/heap_service.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/selection_policy.h"
#include "observe/observer.h"
#include "sim/simulator.h"
#include "sim/spec.h"
#include "support/heap_invariants.h"
#include "support/result_equality.h"

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
}

// Records the run-finished events a fleet publishes (the service
// serializes delivery, so no locking here).
class RunFinishedRecorder : public SimObserver {
 public:
  void OnRunFinished(const RunFinishedEvent& event) override {
    events.push_back(event);
  }
  std::vector<RunFinishedEvent> events;
};

TEST(ServiceObserverTest, ObserverSeesOneTaggedRunFinishedPerTenant) {
  for (uint32_t threads : {1u, 3u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    RunFinishedRecorder recorder;
    ServiceSpec spec;
    for (size_t i = 0; i < 4; ++i) {
      spec.tenants.push_back(
          TenantSpec::Base(SmallTenant("UpdatedPointer", 7 + i))
              .Named("t" + std::to_string(i)));
    }
    spec.threads = threads;
    spec.observer = &recorder;
    auto result = RunService(std::move(spec));
    ASSERT_TRUE(result.status().ok()) << result.status().message();
    const std::vector<SimulationResult>& tenants = result->tenants;
    ASSERT_EQ(tenants.size(), 4u);
    ASSERT_EQ(recorder.events.size(), 4u);
    std::vector<bool> seen(tenants.size(), false);
    for (const RunFinishedEvent& event : recorder.events) {
      // The tag is the tenant index + 1.
      ASSERT_GE(event.thread, 1u);
      ASSERT_LE(event.thread, 4u);
      EXPECT_FALSE(seen[event.thread - 1]) << "tag " << event.thread;
      seen[event.thread - 1] = true;
      const SimulationResult& tenant = tenants[event.thread - 1];
      EXPECT_GT(event.app_events, 0u);
      EXPECT_EQ(event.policy, tenant.policy_name);
      EXPECT_EQ(event.seed, tenant.seed);
      EXPECT_EQ(event.app_events, tenant.app_events);
      EXPECT_EQ(event.app_io, tenant.app_io);
      EXPECT_EQ(event.gc_io, tenant.gc_io);
      EXPECT_EQ(event.garbage_reclaimed_bytes, tenant.garbage_reclaimed_bytes);
    }
  }
}

}  // namespace
}  // namespace odbgc
