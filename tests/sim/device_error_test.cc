// A device error ends the run and reaches the caller unchanged: through
// the heap, the buffer pool's write-back and the simulator, out of
// Simulator::Run and out of RunExperiment.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <span>
#include <string>

#include "sim/runner.h"
#include "sim/simulator.h"
#include "storage/device_registry.h"
#include "storage/disk.h"

namespace odbgc {
namespace {

// The paper's disk, except that its Nth page write (counting from
// construction) fails with IoError and leaves the page as it was.
class FailingDisk : public SimulatedDisk {
 public:
  FailingDisk(size_t page_size, MetricsRegistry* registry, uint64_t fail_at)
      : SimulatedDisk(page_size, registry), fail_at_(fail_at) {}

  Status WritePage(PageId page, std::span<const std::byte> in) override {
    if (++writes_ == fail_at_) {
      return Status::IoError("failing disk: write #" +
                             std::to_string(writes_));
    }
    return SimulatedDisk::WritePage(page, in);
  }

 private:
  const uint64_t fail_at_;
  uint64_t writes_ = 0;
};

// "failing-disk:N" builds a FailingDisk that fails write N.
std::string FailingDiskSpec(uint64_t fail_at) {
  static const bool registered =
      RegisterDevice("failing-disk",
                     [](const DeviceContext& context, const std::string& arg)
                         -> Result<std::unique_ptr<PageDevice>> {
                       return std::unique_ptr<PageDevice>(new FailingDisk(
                           context.page_size, context.registry,
                           std::strtoull(arg.c_str(), nullptr, 10)));
                     })
          .ok();
  EXPECT_TRUE(registered);
  return "failing-disk:" + std::to_string(fail_at);
}

SimulationConfig SmallConfig() {
  SimulationConfig config;
  config.heap.store.page_size = 1024;
  config.heap.store.pages_per_partition = 16;
  config.heap.buffer_pages = 8;
  config.heap.overwrite_trigger = 25;
  config.heap.policy_name = "UpdatedPointer";
  config.workload.target_live_bytes = 64ull << 10;
  config.workload.total_alloc_bytes = 160ull << 10;
  config.workload.tree_nodes_min = 50;
  config.workload.tree_nodes_max = 150;
  config.workload.large_object_size = 4096;
  return config;
}

TEST(DeviceErrorTest, SimulatorRunReturnsTheDeviceError) {
  SimulationConfig config = SmallConfig();
  config.heap.device_spec = FailingDiskSpec(0);  // Never fails.
  Simulator clean(config);
  ASSERT_TRUE(clean.Run().ok());
  const uint64_t writes = clean.Finish().disk_stats.page_writes;
  ASSERT_GT(writes, 4u);

  config.heap.device_spec = FailingDiskSpec(writes / 2);
  Simulator failing(config);
  const Status status = failing.Run();
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
  EXPECT_EQ(status.message(),
            "failing disk: write #" + std::to_string(writes / 2));
  EXPECT_LT(failing.events_applied(), clean.events_applied());
}

TEST(DeviceErrorTest, RunExperimentReturnsTheDeviceError) {
  SimulationConfig config = SmallConfig();
  config.heap.device_spec = FailingDiskSpec(3);
  auto experiment = RunExperiment(
      ExperimentSpec::Base(config).WithPolicies({"UpdatedPointer", "Random"}));
  ASSERT_FALSE(experiment.ok());
  EXPECT_EQ(experiment.status().code(), StatusCode::kIoError);
  EXPECT_EQ(experiment.status().message(), "failing disk: write #3");
}

}  // namespace
}  // namespace odbgc
