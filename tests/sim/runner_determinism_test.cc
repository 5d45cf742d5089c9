// RunExperiment must be bit-deterministic across thread counts: a parallel
// run is only trustworthy if every field of every SimulationResult —
// counters, component stats, metric samples, time series — matches the
// serial run exactly. This covers the SSD backend too.

#include <gtest/gtest.h>

#include "sim/runner.h"
#include "support/result_equality.h"

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
    ASSERT_EQ(a->sets[s].name, b->sets[s].name);
    ASSERT_EQ(a->sets[s].runs.size(), b->sets[s].runs.size());
    for (size_t r = 0; r < a->sets[s].runs.size(); ++r) {
      SCOPED_TRACE("policy set " + std::to_string(s) + " run " +
                   std::to_string(r));
      ExpectResultsIdentical(a->sets[s].runs[r], b->sets[s].runs[r]);
    }
  }
}

TEST(RunnerDeterminismTest, ParallelMatchesSerialFieldForField) {
  ExpectExperimentsIdentical(TinySpec());
}

TEST(RunnerDeterminismTest, ParallelMatchesSerialOnSsd) {
  ExperimentSpec spec = TinySpec();
  spec.base.heap.device_spec = "ssd";
  spec.base.heap.ssd_cost.pages_per_block = 8;
  ExpectExperimentsIdentical(spec);
}

}  // namespace
}  // namespace odbgc
