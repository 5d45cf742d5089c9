// SimObserver: every layer publishes into the per-run sink, and the
// event sequence (minus wall-clock payloads) is a deterministic function
// of (config, seed) — identical across repeated runs and across runner
// thread counts.

#include "observe/observer.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/runner.h"
#include "sim/simulator.h"

namespace odbgc {
namespace {

/// Formats every event into a line, excluding wall_ns (the one
/// nondeterministic payload) so streams can be compared with ==.
class RecordingObserver : public SimObserver {
 public:
  explicit RecordingObserver(std::vector<std::string>* sink)
      : sink_(sink) {}

  void OnRunStarted(const RunStartedEvent& event) override {
    sink_->push_back("run_started " + event.policy + " s" +
                     std::to_string(event.seed));
  }
  void OnRunFinished(const RunFinishedEvent& event) override {
    sink_->push_back("run_finished " + event.policy + " s" +
                     std::to_string(event.seed) + " events=" +
                     std::to_string(event.app_events) + " app_io=" +
                     std::to_string(event.app_io) + " gc_io=" +
                     std::to_string(event.gc_io) + " reclaimed=" +
                     std::to_string(event.garbage_reclaimed_bytes));
  }
  void OnCollection(const CollectionEvent& event) override {
    collections.push_back(event);
    sink_->push_back(
        "collection #" + std::to_string(event.ordinal) + " victim=" +
        std::to_string(event.victim) + " target=" +
        std::to_string(event.copy_target) + " reclaimed=" +
        std::to_string(event.garbage_reclaimed_bytes) + " copied=" +
        std::to_string(event.live_bytes_copied) + " io=" +
        std::to_string(event.page_reads) + "/" +
        std::to_string(event.page_writes));
  }
  void OnPhase(const PhaseEvent& event) override {
    sink_->push_back(std::string("phase ") + event.phase);
  }

  std::vector<CollectionEvent> collections;

 private:
  std::vector<std::string>* sink_;
};

SimulationConfig TinyConfig(uint64_t seed = 1) {
  SimulationConfig config;
  config.heap.store.page_size = 1024;
  config.heap.store.pages_per_partition = 16;
  config.heap.buffer_pages = 16;
  config.heap.overwrite_trigger = 30;
  config.seed = seed;
  config.snapshot_interval = 2000;
  config.workload.target_live_bytes = 96ull << 10;
  config.workload.total_alloc_bytes = 240ull << 10;
  config.workload.tree_nodes_min = 60;
  config.workload.tree_nodes_max = 200;
  config.workload.large_object_size = 4096;
  return config;
}

std::vector<std::string> ObservedRun(const SimulationConfig& base,
                                     std::vector<CollectionEvent>* collections
                                     = nullptr,
                                     const CollectedHeap** heap_out
                                     = nullptr) {
  std::vector<std::string> lines;
  RecordingObserver observer(&lines);
  SimulationConfig config = base;
  config.heap.observer = &observer;
  Simulator simulator(config);
  EXPECT_TRUE(simulator.Run().ok());
  simulator.Finish();
  if (collections != nullptr) *collections = observer.collections;
  if (heap_out != nullptr) *heap_out = &simulator.heap();
  return lines;
}

TEST(ObserverTest, LifecycleEventsBracketTheRun) {
  SimulationConfig config = TinyConfig();
  config.heap.policy_name = "UpdatedPointer";
  const std::vector<std::string> lines = ObservedRun(config);
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.front(), "run_started UpdatedPointer s1");
  EXPECT_EQ(lines.back().rfind("run_finished UpdatedPointer s1", 0), 0u)
      << lines.back();
  // The trigger fires during this workload: collections were published.
  size_t collections = 0, phases = 0;
  for (const std::string& line : lines) {
    collections += line.rfind("collection ", 0) == 0;
    phases += line.rfind("phase ", 0) == 0;
  }
  EXPECT_GT(collections, 0u);
  EXPECT_GT(phases, 0u);
}

TEST(ObserverTest, CollectionEventsMirrorTheCollectionLog) {
  SimulationConfig base = TinyConfig();
  base.heap.policy_name = "UpdatedPointer";

  std::vector<CollectionEvent> events;
  std::vector<std::string> lines;
  RecordingObserver observer(&lines);
  SimulationConfig config = base;
  config.heap.observer = &observer;
  Simulator simulator(config);
  ASSERT_TRUE(simulator.Run().ok());

  const auto& log = simulator.heap().collection_log();
  ASSERT_EQ(observer.collections.size(), log.size());
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(observer.collections[i].ordinal, i + 1);
    EXPECT_EQ(observer.collections[i].victim, log[i].collected);
    EXPECT_EQ(observer.collections[i].copy_target, log[i].copy_target);
    EXPECT_EQ(observer.collections[i].garbage_reclaimed_bytes,
              log[i].garbage_bytes_reclaimed);
    EXPECT_EQ(observer.collections[i].live_bytes_copied,
              log[i].live_bytes_copied);
    EXPECT_EQ(observer.collections[i].page_reads, log[i].page_reads);
    EXPECT_EQ(observer.collections[i].page_writes, log[i].page_writes);
  }
}

TEST(ObserverTest, EventSequenceIsDeterministicAcrossRepeatedRuns) {
  SimulationConfig config = TinyConfig(5);
  config.heap.policy_name = "Random";  // Seeded: still deterministic.
  EXPECT_EQ(ObservedRun(config), ObservedRun(config));
}

TEST(ObserverTest, RunnerStreamsAreIdenticalAcrossThreadCounts) {
  // Each run records into externally owned storage keyed by (policy,
  // seed), so the streams survive the runner's observer teardown.
  struct Streams {
    std::mutex mutex;
    std::map<std::string, std::vector<std::string>> by_run;
  };

  auto run_with_threads = [](int threads) {
    auto streams = std::make_shared<Streams>();
    ExperimentSpec spec;
    spec.base = TinyConfig();
    spec.policies = {"UpdatedPointer", "Random", "MostGarbage"};
    spec.num_seeds = 2;
    spec.threads = threads;
    spec.observer_factory =
        [streams](const std::string& policy,
                  uint64_t seed) -> std::unique_ptr<SimObserver> {
      std::lock_guard<std::mutex> lock(streams->mutex);
      auto& sink = streams->by_run[policy + "-s" + std::to_string(seed)];
      return std::make_unique<RecordingObserver>(&sink);
    };
    auto experiment = RunExperiment(spec);
    EXPECT_TRUE(experiment.ok()) << experiment.status().ToString();
    return streams->by_run;
  };

  const auto serial = run_with_threads(1);
  const auto parallel = run_with_threads(4);
  ASSERT_EQ(serial.size(), 6u);
  ASSERT_EQ(parallel.size(), serial.size());
  for (const auto& [key, lines] : serial) {
    ASSERT_NE(parallel.find(key), parallel.end()) << key;
    EXPECT_EQ(parallel.at(key), lines) << key;
  }
}

}  // namespace
}  // namespace odbgc
