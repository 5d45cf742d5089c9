// The shared-arena determinism contract (DESIGN.md §17):
//
//  1. Byte-identity — at threads == 1 with the arena never exhausted, a
//     fleet over one physically shared frame arena produces per-tenant
//     results bitwise identical to a standalone Simulator run of each
//     tenant's config (whose pool owns its frames), for all six paper
//     policies. Physical sharing is invisible to the simulation.
//  2. K-step batching (ServiceSpec::steps_per_round) amortizes barrier
//     overhead without changing any unpressured tenant result.
//  3. Arrival/departure — tenants may join and leave mid-run; a dormant
//     tenant holds no frames and a departed one gives its frames back.
//  4. Squeeze — a fleet whose quotas overcommit a tiny arena still
//     completes, shedding via under-quota (squeezed) evictions.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/selection_policy.h"
#include "service/heap_service.h"
#include "sim/simulator.h"
#include "sim/spec.h"

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

/// The same deterministic-surface comparator the service equivalence
/// suite uses: every field except wall-clock measurements.
void ExpectResultsIdentical(const SimulationResult& a,
                            const SimulationResult& b) {
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.policy_name, b.policy_name);
  EXPECT_EQ(a.seed, b.seed);
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

/// A 4-tenant single-policy fleet with distinct seeds and no watermark.
ServiceSpec SmallFleet(const std::string& policy) {
  ServiceSpec spec;
  for (size_t i = 0; i < 4; ++i) {
    spec.tenants.push_back(
        TenantSpec::Base(SmallTenant(policy, 20 + i))
            .Named(std::string("t").append(std::to_string(i))));
  }
  return spec;
}

class SharedPoolIdentityTest : public ::testing::TestWithParam<std::string> {};

// The tentpole identity: a fleet over the shared arena vs standalone runs,
// threads == 1, bitwise-equal per-tenant results for every paper policy.
TEST_P(SharedPoolIdentityTest, SharedArenaMatchesPrivatePoolsByteForByte) {
  const ServiceSpec spec = SmallFleet(GetParam());
  auto shared = RunService(spec);
  ASSERT_TRUE(shared.status().ok()) << shared.status().message();

  EXPECT_GT(shared->aggregate.app_events, 0u);  // Not a vacuous pass.
  ASSERT_EQ(shared->tenants.size(), spec.tenants.size());
  for (size_t t = 0; t < spec.tenants.size(); ++t) {
    Simulator solo(spec.tenants[t].config);
    ASSERT_TRUE(solo.Run().ok());
    ExpectResultsIdentical(shared->tenants[t], solo.Finish());
  }
  // No watermark and an uncapped budget: no squeezes, so the identity
  // held unconditionally rather than by luck.
  EXPECT_EQ(shared->squeezed_evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(PaperPolicies, SharedPoolIdentityTest,
                         ::testing::ValuesIn(PaperPolicyNames()));

ServiceSpec PressuredFleet(size_t tenants, uint32_t threads,
                           uint64_t steps_per_round = 1) {
  const std::vector<std::string>& policies = PaperPolicyNames();
  ServiceSpec spec;
  for (size_t i = 0; i < tenants; ++i) {
    const std::string& policy = policies[1 + i % (policies.size() - 1)];
    spec.tenants.push_back(
        TenantSpec::Base(SmallTenant(policy, 100 + i))
            .Named(std::string("t").append(std::to_string(i))));
  }
  uint64_t cap_sum = 0;
  for (const TenantSpec& tenant : spec.tenants) {
    cap_sum += tenant.config.heap.buffer_pages;
  }
  // Overcommitted aggregate budget, but budget >= watermark + max cap, so
  // the arena itself never runs dry (squeeze-free regime).
  return std::move(spec)
      .WithThreads(threads)
      .WithFrameBudget(cap_sum * 3 / 4)
      .WithWatermark(0.5)
      .WithStepsPerRound(steps_per_round);
}

// Admission control on: pressure engages (stalls, forced collections)
// without a single squeeze, so the arena changes nothing observable (this
// fleet's per-tenant results matched the per-tenant private pools the
// arena replaced, field for field, when those were deleted).
TEST(SharedPoolPressureTest, PressuredFleetIdenticalToPrivatePools) {
  auto shared = RunService(PressuredFleet(8, 1));
  ASSERT_TRUE(shared.status().ok()) << shared.status().message();

  EXPECT_GT(shared->admission_stalls, 0u);
  EXPECT_GT(shared->forced_collections, 0u);
  EXPECT_EQ(shared->squeezed_evictions, 0u);
  ASSERT_EQ(shared->tenants.size(), 8u);
  // The per-tenant telemetry agrees with the service-level totals.
  uint64_t stall_sum = 0, peak_max = 0;
  ASSERT_EQ(shared->tenant_admission_stalls.size(), shared->tenants.size());
  ASSERT_EQ(shared->tenant_peak_resident_frames.size(),
            shared->tenants.size());
  for (size_t t = 0; t < shared->tenants.size(); ++t) {
    stall_sum += shared->tenant_admission_stalls[t];
    peak_max =
        std::max<uint64_t>(peak_max, shared->tenant_peak_resident_frames[t]);
    // No tenant's peak exceeds its own quota (buffer_pages = 16).
    EXPECT_LE(shared->tenant_peak_resident_frames[t], 16u);
  }
  EXPECT_EQ(stall_sum, shared->admission_stalls);
  EXPECT_GT(peak_max, 0u);
  EXPECT_LE(peak_max, shared->peak_occupancy_frames);
}

// A pressured shared-arena fleet stays thread-count invariant: tenants
// allocate from the one arena concurrently, yet no result can tell.
TEST(SharedPoolPressureTest, SharedArenaFleetIsThreadCountInvariant) {
  std::vector<ServiceResult> results;
  for (uint32_t threads : {1u, 2u, 4u}) {
    auto result = RunService(PressuredFleet(8, threads));
    ASSERT_TRUE(result.status().ok()) << result.status().message();
    EXPECT_EQ(result->squeezed_evictions, 0u);
    results.push_back(*std::move(result));
  }
  const ServiceResult& base = results.front();
  EXPECT_GT(base.aggregate.app_events, 0u);
  for (size_t r = 1; r < results.size(); ++r) {
    ASSERT_EQ(base.tenants.size(), results[r].tenants.size());
    for (size_t t = 0; t < base.tenants.size(); ++t) {
      ExpectResultsIdentical(base.tenants[t], results[r].tenants[t]);
    }
    EXPECT_EQ(base.rounds, results[r].rounds);
    EXPECT_EQ(base.forced_collections, results[r].forced_collections);
    EXPECT_EQ(base.admission_stalls, results[r].admission_stalls);
    EXPECT_EQ(base.peak_occupancy_frames, results[r].peak_occupancy_frames);
  }
}

// steps_per_round batches K sim steps into one worker dispatch. Without a
// watermark the barrier does no scheduling, so batching must be invisible
// in every tenant result.
TEST(SharedPoolBatchingTest, StepBatchingPreservesUnpressuredResults) {
  auto one = RunService(SmallFleet("UpdatedPointer").WithStepsPerRound(1));
  auto eight = RunService(SmallFleet("UpdatedPointer").WithStepsPerRound(8));
  ASSERT_TRUE(one.status().ok()) << one.status().message();
  ASSERT_TRUE(eight.status().ok()) << eight.status().message();
  ASSERT_EQ(one->tenants.size(), eight->tenants.size());
  for (size_t t = 0; t < one->tenants.size(); ++t) {
    ExpectResultsIdentical(one->tenants[t], eight->tenants[t]);
  }
  // Batching's entire point: the same work in ~K fewer barriers.
  EXPECT_LT(eight->rounds, one->rounds);
  EXPECT_GE(one->rounds, eight->rounds * 7);
}

// Pressured + batched + multi-threaded: the invariance gate still holds
// (rounds differ from K=1, but not across thread counts).
TEST(SharedPoolBatchingTest, BatchedPressuredFleetIsThreadInvariant) {
  std::vector<ServiceResult> results;
  for (uint32_t threads : {1u, 4u}) {
    auto result =
        RunService(PressuredFleet(8, threads, /*steps_per_round=*/4));
    ASSERT_TRUE(result.status().ok()) << result.status().message();
    results.push_back(*std::move(result));
  }
  ASSERT_EQ(results[0].tenants.size(), results[1].tenants.size());
  for (size_t t = 0; t < results[0].tenants.size(); ++t) {
    ExpectResultsIdentical(results[0].tenants[t], results[1].tenants[t]);
  }
  EXPECT_EQ(results[0].rounds, results[1].rounds);
  EXPECT_EQ(results[0].admission_stalls, results[1].admission_stalls);
}

// -- Arrival / departure -----------------------------------------------------

TEST(SharedPoolFleetTest, LateArrivalRunsToCompletionUnchanged) {
  // A tenant that arrives at round 50 must produce the same result as one
  // that was there from the start: arrival delays, it never perturbs.
  ServiceSpec spec = SmallFleet("UpdatedPointer");
  spec.tenants.push_back(TenantSpec::Base(SmallTenant("WeightedPointer", 99))
                             .Named("late")
                             .ArrivingAtRound(50));
  auto staggered = RunService(std::move(spec));
  ASSERT_TRUE(staggered.status().ok()) << staggered.status().message();

  ServiceSpec punctual_spec = SmallFleet("UpdatedPointer");
  punctual_spec.tenants.push_back(
      TenantSpec::Base(SmallTenant("WeightedPointer", 99)).Named("late"));
  auto punctual = RunService(std::move(punctual_spec));
  ASSERT_TRUE(punctual.status().ok()) << punctual.status().message();

  ASSERT_EQ(staggered->tenants.size(), 5u);
  EXPECT_GT(staggered->tenants[4].app_events, 0u);
  ExpectResultsIdentical(staggered->tenants[4], punctual->tenants[4]);
  // The late tenant cost at least its head start in extra rounds.
  EXPECT_GT(staggered->rounds, 50u);
}

TEST(SharedPoolFleetTest, DepartureRetiresTheTenantAndCountsIt) {
  ServiceSpec spec = SmallFleet("UpdatedPointer");
  spec.tenants.push_back(TenantSpec::Base(SmallTenant("WeightedPointer", 7))
                             .Named("brief")
                             .ArrivingAtRound(2)
                             .DepartingAtRound(6));
  auto result = RunService(std::move(spec));
  ASSERT_TRUE(result.status().ok()) << result.status().message();

  EXPECT_EQ(result->departures, 1u);
  ASSERT_EQ(result->tenants.size(), 5u);
  // The departed tenant ran 4 rounds' worth of events, not its whole
  // stream; the permanent tenants are unaffected.
  const SimulationResult& brief = result->tenants[4];
  EXPECT_LT(brief.app_events, result->tenants[0].app_events);
  for (size_t t = 0; t < 4; ++t) {
    EXPECT_GT(result->tenants[t].app_events, 0u);
  }
}

TEST(SharedPoolFleetTest, ArrivalPastFleetEndStillRetiresCleanly) {
  // A tenant arriving long after everyone else finished gets exactly one
  // round before its immediate departure: the round clock keeps ticking
  // through idle rounds, the retirement finalizes a barely-started run,
  // and the service terminates rather than wedging on the straggler.
  ServiceSpec spec = SmallFleet("UpdatedPointer");
  spec.tenants.push_back(TenantSpec::Base(SmallTenant("WeightedPointer", 7))
                             .Named("straggler")
                             .ArrivingAtRound(10000)
                             .DepartingAtRound(10001));
  auto result = RunService(std::move(spec));
  ASSERT_TRUE(result.status().ok()) << result.status().message();
  EXPECT_EQ(result->departures, 1u);
  EXPECT_GE(result->rounds, 10001u);
  // One admitted round, not the whole stream.
  EXPECT_LT(result->tenants[4].app_events, result->tenants[0].app_events);
}

TEST(SharedPoolFleetTest, RejectsDepartureNotAfterArrival) {
  ServiceSpec spec = SmallFleet("UpdatedPointer");
  spec.tenants.push_back(TenantSpec::Base(SmallTenant("WeightedPointer", 7))
                             .Named("bad")
                             .ArrivingAtRound(5)
                             .DepartingAtRound(5));
  EXPECT_FALSE(RunService(std::move(spec)).status().ok());
}

// -- Squeeze -----------------------------------------------------------------

TEST(SharedPoolSqueezeTest, OvercommittedArenaCompletesViaSqueezes) {
  // Four tenants, quota 16 each, over a 49-frame arena and no watermark:
  // the fleet wants 64 frames, so exhaustion is guaranteed, but any one
  // tenant can always keep at least one frame ((tenants-1)*quota + 1) —
  // the squeeze path carries the run to completion rather than an error.
  // (Budgets small enough to leave a tenant empty-handed are the
  // documented ResourceExhausted regime; see SqueezeBelowFloorErrs.)
  ServiceSpec spec = SmallFleet("UpdatedPointer");
  auto result = RunService(std::move(spec).WithFrameBudget(49));
  ASSERT_TRUE(result.status().ok()) << result.status().message();
  EXPECT_GT(result->squeezed_evictions, 0u);
  for (const SimulationResult& tenant : result->tenants) {
    EXPECT_GT(tenant.app_events, 0u);
  }
  // Physical occupancy never exceeded the arena.
  EXPECT_LE(result->peak_occupancy_frames, 49u);
}

TEST(SharedPoolSqueezeTest, SqueezeBelowFloorErrs) {
  // A budget so small a tenant can be left holding nothing fails loudly
  // with ResourceExhausted rather than stealing another tenant's frame
  // (the error message tells the operator to raise the budget or arm
  // the watermark).
  ServiceSpec spec = SmallFleet("UpdatedPointer");
  auto result = RunService(std::move(spec).WithFrameBudget(8));
  ASSERT_FALSE(result.status().ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace odbgc
