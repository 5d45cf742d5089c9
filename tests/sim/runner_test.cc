#include "sim/runner.h"

#include <gtest/gtest.h>

namespace odbgc {
namespace {

ExperimentSpec TinySpec() {
  ExperimentSpec spec;
  spec.base.heap.store.page_size = 1024;
  spec.base.heap.store.pages_per_partition = 16;
  spec.base.heap.buffer_pages = 16;
  spec.base.heap.overwrite_trigger = 25;
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

TEST(RunnerTest, RunsAllPoliciesAndSeeds) {
  auto experiment = RunExperiment(TinySpec());
  ASSERT_TRUE(experiment.ok()) << experiment.status().ToString();
  ASSERT_EQ(experiment->sets.size(), 3u);
  for (const PolicyRuns& set : experiment->sets) {
    ASSERT_EQ(set.runs.size(), 3u);
    for (size_t i = 0; i < set.runs.size(); ++i) {
      EXPECT_EQ(set.runs[i].policy_name, set.name);
      EXPECT_EQ(set.runs[i].seed, 10 + i);
      EXPECT_GT(set.runs[i].app_events, 0u);
    }
  }
}

TEST(RunnerTest, FindLocatesPolicy) {
  auto experiment = RunExperiment(TinySpec());
  ASSERT_TRUE(experiment.ok());
  EXPECT_NE(experiment->Find("Random"), nullptr);
  EXPECT_EQ(experiment->Find("UpdatedPointer"), nullptr);
}

TEST(RunnerTest, SeedsSeeTheSameTraceAcrossPolicies) {
  auto experiment = RunExperiment(TinySpec());
  ASSERT_TRUE(experiment.ok());
  const PolicyRuns* a = experiment->Find("MostGarbage");
  const PolicyRuns* b = experiment->Find("NoCollection");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  for (size_t i = 0; i < a->runs.size(); ++i) {
    EXPECT_EQ(a->runs[i].app_events, b->runs[i].app_events);
    EXPECT_EQ(a->runs[i].bytes_allocated, b->runs[i].bytes_allocated);
  }
}

TEST(RunnerTest, SingleThreadMatchesParallel) {
  ExperimentSpec serial = TinySpec();
  serial.threads = 1;
  ExperimentSpec parallel = TinySpec();
  parallel.threads = 4;
  auto a = RunExperiment(serial);
  auto b = RunExperiment(parallel);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t s = 0; s < a->sets.size(); ++s) {
    for (size_t r = 0; r < a->sets[s].runs.size(); ++r) {
      EXPECT_EQ(a->sets[s].runs[r].app_io, b->sets[s].runs[r].app_io);
      EXPECT_EQ(a->sets[s].runs[r].max_storage_bytes,
                b->sets[s].runs[r].max_storage_bytes);
    }
  }
}

TEST(RunnerTest, InvalidWorkloadSurfacesError) {
  ExperimentSpec spec = TinySpec();
  spec.base.workload.total_alloc_bytes = 1;  // < live target: invalid.
  auto experiment = RunExperiment(spec);
  EXPECT_FALSE(experiment.ok());
  EXPECT_EQ(experiment.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace odbgc
