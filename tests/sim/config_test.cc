// Validate(const SimulationConfig&): one check per field a run cannot
// execute with, enforced wherever a run starts — RunExperiment before it
// builds any heap, Simulator::Run before it replays, and the heap service
// for each tenant.

#include "sim/config.h"

#include <gtest/gtest.h>

#include <string>

#include "service/heap_service.h"
#include "sim/runner.h"
#include "sim/simulator.h"
#include "sim/spec.h"

namespace odbgc {
namespace {

SimulationConfig SmallConfig() {
  SimulationConfig config;
  config.heap.store.page_size = 1024;
  config.heap.store.pages_per_partition = 16;
  config.heap.buffer_pages = 16;
  config.heap.overwrite_trigger = 25;
  config.workload.target_live_bytes = 64ull << 10;
  config.workload.total_alloc_bytes = 160ull << 10;
  config.workload.tree_nodes_min = 50;
  config.workload.tree_nodes_max = 150;
  config.workload.large_object_size = 4096;
  return config;
}

// Validate and RunExperiment both reject `config` with InvalidArgument
// naming `field`.
void ExpectRejected(const SimulationConfig& config, const std::string& field) {
  const Status status = Validate(config);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find(field), std::string::npos)
      << status.ToString();

  auto experiment = RunExperiment(
      ExperimentSpec::Base(config).WithPolicies({"UpdatedPointer"}));
  ASSERT_FALSE(experiment.ok());
  EXPECT_EQ(experiment.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(experiment.status().message().find(field), std::string::npos)
      << experiment.status().ToString();
}

TEST(ConfigValidationTest, RejectsZeroBufferPages) {
  SimulationConfig config = SmallConfig();
  config.heap.buffer_pages = 0;
  ExpectRejected(config, "buffer_pages");
}

TEST(ConfigValidationTest, RejectsZeroPagesPerPartition) {
  SimulationConfig config = SmallConfig();
  config.heap.store.pages_per_partition = 0;
  ExpectRejected(config, "pages_per_partition");
}

TEST(ConfigValidationTest, RejectsUnknownPolicyName) {
  SimulationConfig config = SmallConfig();
  config.heap.policy_name = "NoSuchPolicy";
  EXPECT_EQ(Validate(config).code(), StatusCode::kInvalidArgument);
  EXPECT_NE(Validate(config).message().find("NoSuchPolicy"),
            std::string::npos);
  auto experiment = RunExperiment(
      ExperimentSpec::Base(SmallConfig()).WithPolicies({"NoSuchPolicy"}));
  EXPECT_EQ(experiment.status().code(), StatusCode::kInvalidArgument);
}

// A policy is chosen by name only, so no name is no policy.
TEST(ConfigValidationTest, RejectsEmptyPolicyName) {
  SimulationConfig config = SmallConfig();
  config.heap.policy_name.clear();
  const Status status = Validate(config);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "heap.policy_name must not be empty");
  auto experiment =
      RunExperiment(ExperimentSpec::Base(SmallConfig()).WithPolicies({""}));
  EXPECT_EQ(experiment.status().code(), StatusCode::kInvalidArgument);
}

TEST(ConfigValidationTest, RejectsUnknownDeviceSpec) {
  SimulationConfig config = SmallConfig();
  config.heap.device_spec = "tape:/dev/st0";
  ExpectRejected(config, "tape:/dev/st0");
}

TEST(ConfigValidationTest, RejectsInvalidWorkload) {
  SimulationConfig config = SmallConfig();
  config.workload.total_alloc_bytes = 1;  // Below the live target.
  ExpectRejected(config, "total_alloc_bytes");

  // Simulator::Run checks before it replays anything.
  Simulator simulator(config);
  EXPECT_EQ(simulator.Run().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(simulator.events_applied(), 0u);
}

TEST(ConfigValidationTest, ServiceNamesTheRejectedTenant) {
  SimulationConfig config = SmallConfig();
  config.heap.buffer_pages = 0;
  auto result = RunService(ServiceSpec::Hosting(
      {TenantSpec::Base(SmallConfig()).Named("ok"),
       TenantSpec::Base(config).Named("starved")}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.status().message().rfind("starved: ", 0), 0u)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("buffer_pages"),
            std::string::npos)
      << result.status().ToString();
}

}  // namespace
}  // namespace odbgc
