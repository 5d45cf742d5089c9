// A device error ends the run and reaches the caller unchanged: through
// the heap, the buffer pool's write-back and the simulator, out of
// Simulator::Run and out of RunExperiment. A collection or full collection
// that fails part-way leaves a heap that passes the invariant check, and a
// failed collection leaves every cross-partition pointer indexed.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/runner.h"
#include "sim/simulator.h"
#include "storage/device_registry.h"
#include "storage/disk.h"
#include "support/heap_invariants.h"

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

  uint64_t writes() const { return writes_; }

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

// The device writes a collection made: the 1-based numbers of its first
// and last, and the partition count when it ended.
struct WriteSpan {
  uint64_t first = 0;
  uint64_t last = 0;
  size_t partitions = 0;
};

// Records the write span of every collection and full collection of a
// heap on a FailingDisk, and counts the phases the heap published (a
// failed collection publishes its phase but no CollectionEvent).
class WriteSpanRecorder : public SimObserver {
 public:
  void Watch(const CollectedHeap* heap) { heap_ = heap; }
  void OnCollection(const CollectionEvent& event) override {
    // A full collection chained to this one starts right after it.
    writes_before_full_ = Writes();
    collections.push_back({writes_before_full_ - event.page_writes + 1,
                           writes_before_full_, Partitions()});
  }
  void OnPhase(const PhaseEvent& event) override {
    const std::string_view phase = event.phase;
    if (phase == "collection") ++collection_phases;
    if (phase == "full_collection") {
      full_collections.push_back(
          {writes_before_full_ + 1, Writes(), Partitions()});
    }
  }

  std::vector<WriteSpan> collections;
  std::vector<WriteSpan> full_collections;
  uint64_t collection_phases = 0;

 private:
  uint64_t Writes() const {
    return dynamic_cast<const FailingDisk&>(heap_->device()).writes();
  }
  size_t Partitions() const { return heap_->store().partition_count(); }

  const CollectedHeap* heap_ = nullptr;
  uint64_t writes_before_full_ = 0;
};

// Runs `config` on a FailingDisk that fails write `fail_at` (0: never),
// recording into `recorder`; returns the run's status.
Status RunRecorded(SimulationConfig config, uint64_t fail_at,
                   WriteSpanRecorder* recorder,
                   std::unique_ptr<Simulator>* simulator) {
  config.heap.device_spec = FailingDiskSpec(fail_at);
  config.heap.observer = recorder;
  *simulator = std::make_unique<Simulator>(config);
  recorder->Watch(&(*simulator)->heap());
  return (*simulator)->Run();
}

// Pointers whose two ends occupy different partitions. Each is one
// inter-partition index entry when the remembered sets are complete.
size_t CrossPartitionPointers(const CollectedHeap& heap) {
  const ObjectStore& store = heap.store();
  size_t count = 0;
  for (PartitionId pid = 0; pid < store.partition_count(); ++pid) {
    for (const auto& [offset, id] : store.partition(pid).objects_by_offset()) {
      for (ObjectId child : store.Lookup(id)->slots) {
        if (!child.is_null() && store.PartitionOf(child) != pid) ++count;
      }
    }
  }
  return count;
}

// The first span with at least four writes, so failing its middle write
// fails the collection after it has copied objects; none if no span has.
std::optional<size_t> PickSpan(const std::vector<WriteSpan>& spans) {
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].last >= spans[i].first + 3) return i;
  }
  return std::nullopt;
}

TEST(DeviceErrorTest, FailedCollectionLeavesHeapConsistent) {
  WriteSpanRecorder clean_spans;
  std::unique_ptr<Simulator> clean;
  ASSERT_TRUE(RunRecorded(SmallConfig(), 0, &clean_spans, &clean).ok());
  const std::optional<size_t> picked = PickSpan(clean_spans.collections);
  ASSERT_TRUE(picked.has_value()) << "no collection made four device writes";
  const size_t k = *picked;
  const WriteSpan& span = clean_spans.collections[k];
  const uint64_t fail_at = (span.first + span.last) / 2;

  WriteSpanRecorder spans;
  std::unique_ptr<Simulator> failing;
  const Status status = RunRecorded(SmallConfig(), fail_at, &spans, &failing);
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
  EXPECT_EQ(status.message(),
            "failing disk: write #" + std::to_string(fail_at));
  // The error came from inside collection k.
  EXPECT_EQ(failing->heap().stats().collections, k);
  EXPECT_EQ(spans.collection_phases, k + 1);
  // It had copied objects: the copy target kept them as an ordinary
  // partition, and a new empty partition was reserved.
  EXPECT_EQ(failing->heap().store().partition_count(), span.partitions + 1);
  ASSERT_TRUE(HeapInvariantsHold(failing->heap()));
  // The pointers between what was copied and what was not cross a
  // partition boundary now, and the remembered sets hold them too.
  EXPECT_EQ(CrossPartitionPointers(failing->heap()),
            failing->heap().index().entry_count());
}

TEST(DeviceErrorTest, FailedFullCollectionLeavesHeapConsistent) {
  SimulationConfig config = SmallConfig();
  config.heap.full_collection_interval = 1;
  WriteSpanRecorder clean_spans;
  std::unique_ptr<Simulator> clean;
  ASSERT_TRUE(RunRecorded(config, 0, &clean_spans, &clean).ok());
  const std::optional<size_t> picked = PickSpan(clean_spans.full_collections);
  ASSERT_TRUE(picked.has_value())
      << "no full collection made four device writes";
  const size_t k = *picked;
  const WriteSpan& span = clean_spans.full_collections[k];
  // Late in the span: past the marking reads, inside the copying sweep.
  const uint64_t fail_at = span.last - (span.last - span.first) / 4;

  WriteSpanRecorder spans;
  std::unique_ptr<Simulator> failing;
  const Status status = RunRecorded(config, fail_at, &spans, &failing);
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
  EXPECT_EQ(status.message(),
            "failing disk: write #" + std::to_string(fail_at));
  EXPECT_EQ(failing->heap().stats().full_collections, k);
  EXPECT_EQ(spans.full_collections.size(), k + 1);
  EXPECT_EQ(failing->heap().store().partition_count(), span.partitions + 1);
  EXPECT_TRUE(HeapInvariantsHold(failing->heap()));
}

}  // namespace
}  // namespace odbgc
