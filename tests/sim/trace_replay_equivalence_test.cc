// End-to-end property of the trace layer: generating a workload straight
// into a simulator and generating it into a trace file, then replaying
// the file, must produce bit-identical simulations — the foundation of
// "capture once, evaluate every policy on the identical event stream".

#include <sstream>

#include <gtest/gtest.h>

#include "sim/config.h"
#include "sim/simulator.h"
#include "support/result_equality.h"
#include "trace/trace_reader.h"
#include "trace/trace_writer.h"
#include "workload/generator.h"
#include "workload/oo1_generator.h"

namespace odbgc {
namespace {

SimulationConfig TinyConfig(PolicyKind policy, uint64_t seed) {
  SimulationConfig config;
  config.heap.store.page_size = 1024;
  config.heap.store.pages_per_partition = 16;
  config.heap.buffer_pages = 16;
  config.heap.policy_name = PolicyName(policy);
  config.heap.overwrite_trigger = 30;
  config.seed = seed;
  config.workload.target_live_bytes = 96ull << 10;
  config.workload.total_alloc_bytes = 220ull << 10;
  config.workload.tree_nodes_min = 60;
  config.workload.tree_nodes_max = 200;
  config.workload.large_object_size = 4096;
  return config;
}

class TraceReplayEquivalenceTest
    : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(TraceReplayEquivalenceTest, FileReplayMatchesLiveGeneration) {
  const SimulationConfig config = TinyConfig(GetParam(), 5);

  // Live: generator feeds the simulator directly.
  Simulator live(config);
  ASSERT_TRUE(live.Run().ok());

  // Captured: generator -> binary trace -> reader -> simulator.
  std::stringstream stream;
  {
    TraceWriter writer(&stream);
    WorkloadGenerator generator(config.workload, config.seed);
    ASSERT_TRUE(generator.Generate(&writer).ok());
    ASSERT_TRUE(writer.Flush().ok());
  }
  Simulator replayed(config);
  TraceReader reader(&stream);
  ASSERT_TRUE(reader.ReplayInto(&replayed).ok());

  ExpectResultsIdentical(live.Finish(), replayed.Finish());
}

INSTANTIATE_TEST_SUITE_P(
    Policies, TraceReplayEquivalenceTest,
    ::testing::Values(PolicyKind::kUpdatedPointer, PolicyKind::kMostGarbage,
                      PolicyKind::kNoCollection, PolicyKind::kRandom),
    [](const ::testing::TestParamInfo<PolicyKind>& info) {
      return PolicyName(info.param);
    });

TEST(TraceReplayEquivalenceTest, OO1WorkloadRoundtripsToo) {
  SimulationConfig config = TinyConfig(PolicyKind::kUpdatedPointer, 9);
  config.heap.overwrite_trigger = 60;
  OO1Config workload;
  workload.target_live_bytes = 64ull << 10;
  workload.total_alloc_bytes = 150ull << 10;
  workload.lookup_count = 15;
  workload.traversal_depth = 4;

  Simulator live(config);
  {
    OO1Generator generator(workload, config.seed);
    ASSERT_TRUE(generator.Generate(&live).ok());
  }

  std::stringstream stream;
  {
    TraceWriter writer(&stream);
    OO1Generator generator(workload, config.seed);
    ASSERT_TRUE(generator.Generate(&writer).ok());
    ASSERT_TRUE(writer.Flush().ok());
  }
  Simulator replayed(config);
  TraceReader reader(&stream);
  ASSERT_TRUE(reader.ReplayInto(&replayed).ok());

  ExpectResultsIdentical(live.Finish(), replayed.Finish());
}

}  // namespace
}  // namespace odbgc
