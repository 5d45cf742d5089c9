#include "workload/generator.h"

#include <map>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "sim/config.h"
#include "trace/trace_stats.h"
#include "util/crc32.h"

namespace odbgc {
namespace {

WorkloadConfig TinyWorkload() {
  WorkloadConfig config;
  config.target_live_bytes = 64ull << 10;
  config.total_alloc_bytes = 160ull << 10;
  config.tree_nodes_min = 50;
  config.tree_nodes_max = 150;
  config.large_object_size = 4096;
  return config;
}

TEST(WorkloadConfigTest, ValidatesDefaults) {
  EXPECT_TRUE(WorkloadConfig().Validate().ok());
  EXPECT_TRUE(TinyWorkload().Validate().ok());
}

TEST(WorkloadConfigTest, RejectsNonsense) {
  WorkloadConfig config = TinyWorkload();
  config.total_alloc_bytes = config.target_live_bytes - 1;
  EXPECT_FALSE(config.Validate().ok());

  config = TinyWorkload();
  config.min_object_size = 200;
  config.max_object_size = 100;
  EXPECT_FALSE(config.Validate().ok());

  config = TinyWorkload();
  config.min_object_size = 30;  // Below header + 3 slots.
  EXPECT_FALSE(config.Validate().ok());

  config = TinyWorkload();
  config.slots_per_object = 1;
  EXPECT_FALSE(config.Validate().ok());

  config = TinyWorkload();
  config.dense_edge_prob = 1.5;
  EXPECT_FALSE(config.Validate().ok());

  config = TinyWorkload();
  config.p_breadth_first = 0.9;
  config.p_depth_first = 0.3;
  EXPECT_FALSE(config.Validate().ok());

  config = TinyWorkload();
  config.dense_window = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(WorkloadConfigTest, ConnectivityHelper) {
  const WorkloadConfig config = TinyWorkload().WithConnectivity(1.167);
  EXPECT_NEAR(config.dense_edge_prob, 0.167, 1e-12);
  EXPECT_DOUBLE_EQ(TinyWorkload().WithConnectivity(0.9).dense_edge_prob, 0.0);
}

TEST(WorkloadConfigTest, TotalAllocationHelperScalesLiveTarget) {
  const WorkloadConfig base = TinyWorkload();
  const WorkloadConfig doubled =
      base.WithTotalAllocation(base.total_alloc_bytes * 2);
  EXPECT_EQ(doubled.total_alloc_bytes, base.total_alloc_bytes * 2);
  EXPECT_EQ(doubled.target_live_bytes, base.target_live_bytes * 2);
}

TEST(WorkloadConfigTest, LargeObjectProbabilityMatchesSpaceFraction) {
  WorkloadConfig config;
  const double f = config.LargeObjectProbability();
  const double a = config.MeanSmallObjectSize();
  const double l = config.large_object_size;
  const double space_fraction = f * l / (f * l + (1 - f) * a);
  EXPECT_NEAR(space_fraction, config.large_space_fraction, 1e-9);
}

TEST(GeneratorTest, DeterministicPerSeed) {
  VectorTraceSink a, b;
  WorkloadGenerator ga(TinyWorkload(), 42);
  WorkloadGenerator gb(TinyWorkload(), 42);
  ASSERT_TRUE(ga.Generate(&a).ok());
  ASSERT_TRUE(gb.Generate(&b).ok());
  ASSERT_EQ(a.events().size(), b.events().size());
  for (size_t i = 0; i < a.events().size(); ++i) {
    ASSERT_EQ(a.events()[i], b.events()[i]) << "diverged at event " << i;
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  VectorTraceSink a, b;
  WorkloadGenerator ga(TinyWorkload(), 1);
  WorkloadGenerator gb(TinyWorkload(), 2);
  ASSERT_TRUE(ga.Generate(&a).ok());
  ASSERT_TRUE(gb.Generate(&b).ok());
  bool differ = a.events().size() != b.events().size();
  for (size_t i = 0; !differ && i < a.events().size(); ++i) {
    differ = !(a.events()[i] == b.events()[i]);
  }
  EXPECT_TRUE(differ);
}

TEST(GeneratorTest, RespectsAllocationBudget) {
  const WorkloadConfig config = TinyWorkload();
  WorkloadGenerator generator(config, 7);
  VectorTraceSink sink;
  ASSERT_TRUE(generator.Generate(&sink).ok());
  EXPECT_TRUE(generator.Done());
  EXPECT_GE(generator.total_allocated_bytes(), config.total_alloc_bytes);
  // Overshoot bounded by one round's worth of growth.
  EXPECT_LT(generator.total_allocated_bytes(),
            config.total_alloc_bytes + (64ull << 10));
}

TEST(GeneratorTest, LiveSizeNearTarget) {
  const WorkloadConfig config = TinyWorkload();
  WorkloadGenerator generator(config, 11);
  VectorTraceSink sink;
  ASSERT_TRUE(generator.Generate(&sink).ok());
  EXPECT_GT(generator.logical_live_bytes(), config.target_live_bytes / 2);
  EXPECT_LT(generator.logical_live_bytes(), config.target_live_bytes * 2);
}

TEST(GeneratorTest, TraceIsWellFormed) {
  // Every referenced object was allocated earlier; slots are in range;
  // every WriteSlot(0) clears a previously set slot.
  VectorTraceSink sink;
  WorkloadGenerator generator(TinyWorkload(), 3);
  ASSERT_TRUE(generator.Generate(&sink).ok());

  std::map<uint64_t, uint32_t> slots_of;
  std::set<std::pair<uint64_t, uint32_t>> set_slots;
  for (const TraceEvent& event : sink.events()) {
    switch (event.kind) {
      case EventKind::kAlloc:
        ASSERT_EQ(slots_of.count(event.object), 0u) << "duplicate alloc";
        slots_of[event.object] = event.num_slots;
        ASSERT_GE(event.size, 20 + 8 * event.num_slots);
        break;
      case EventKind::kWriteSlot: {
        ASSERT_TRUE(slots_of.count(event.object)) << "write before alloc";
        ASSERT_LT(event.slot, slots_of[event.object]);
        if (event.target != 0) {
          ASSERT_TRUE(slots_of.count(event.target)) << "dangling target";
          set_slots.insert({event.object, event.slot});
        } else {
          ASSERT_TRUE(set_slots.count({event.object, event.slot}))
              << "cleared a slot that was never set";
        }
        break;
      }
      case EventKind::kReadSlot:
        ASSERT_TRUE(slots_of.count(event.object));
        ASSERT_LT(event.slot, slots_of[event.object]);
        break;
      default:
        ASSERT_TRUE(slots_of.count(event.object));
        break;
    }
  }
}

TEST(GeneratorTest, WorkloadCharacteristicsMatchPaper) {
  // Full-size generation is fast enough to check the Section 5 shape
  // directly: sizes, large-object fraction, connectivity, read/write mix.
  WorkloadConfig config;  // Paper defaults: 5 MB live, 11 MB allocated.
  WorkloadGenerator generator(config, 5);
  TraceStatsCollector stats;
  ASSERT_TRUE(generator.Generate(&stats).ok());
  const auto& s = stats.Finish();

  EXPECT_NEAR(s.MeanSmallObjectSize(), 100.0, 3.0);
  EXPECT_NEAR(s.LargeSpaceFraction(), 0.20, 0.07);
  // The trace-level metric counts end-of-run edges over all allocations,
  // so edge deletions pull it a few percent under the nominal 1.083.
  EXPECT_NEAR(s.Connectivity(), 1.083, 0.08);
  EXPECT_GT(s.Connectivity(), 1.0);
  EXPECT_GT(s.EdgeReadWriteRatio(), 8.0);
  EXPECT_LT(s.EdgeReadWriteRatio(), 40.0);
  EXPECT_GT(s.pointer_overwrites, 2000u);
  EXPECT_GT(s.events, 1'000'000u);
}

TEST(GeneratorTest, ConnectivityKnobMovesMeasuredConnectivity) {
  auto measure = [](double c) {
    WorkloadConfig config = TinyWorkload().WithConnectivity(c);
    WorkloadGenerator generator(config, 9);
    TraceStatsCollector stats;
    EXPECT_TRUE(generator.Generate(&stats).ok());
    return stats.Finish().Connectivity();
  };
  const double low = measure(1.005);
  const double high = measure(1.167);
  // The tiny test workload deletes a larger fraction of its edges than
  // the paper-size one, shifting both absolute values down; the knob must
  // still move measured connectivity by roughly the configured delta.
  EXPECT_GT(high, low + 0.08);
  EXPECT_NEAR(high - low, 0.162, 0.08);
}

TEST(GeneratorTest, IncrementalApiMatchesGenerate) {
  VectorTraceSink whole, stepped;
  WorkloadGenerator a(TinyWorkload(), 13);
  ASSERT_TRUE(a.Generate(&whole).ok());

  WorkloadGenerator b(TinyWorkload(), 13);
  ASSERT_TRUE(b.BuildInitialDatabase(&stepped).ok());
  while (!b.Done()) {
    ASSERT_TRUE(b.RunRound(&stepped).ok());
  }
  ASSERT_EQ(whole.events().size(), stepped.events().size());
}

// Folds every event's wire bytes (WriteEventBody) into one CRC-32: the
// CRC of the whole stream as a trace file body would hold it.
class Crc32Sink : public TraceSink {
 public:
  Status Append(const TraceEvent& event) override {
    bytes_.str(std::string());
    ODBGC_RETURN_IF_ERROR(WriteEventBody(bytes_, event));
    crc_ = Crc32(bytes_.str(), crc_);
    ++events_;
    return Status::Ok();
  }
  uint32_t crc() const { return crc_; }
  uint64_t events() const { return events_; }

 private:
  std::ostringstream bytes_;
  uint32_t crc_ = 0;
  uint64_t events_ = 0;
};

// The streams below are pinned to values recorded from the generator
// before its node table became a vector indexed by id. Any change to what
// the generator emits, however small, fails here.

TEST(GeneratorTest, PaperBaseStreamIsPinned) {
  const WorkloadConfig config =
      PaperBaseConfig().workload.WithTotalAllocation(1ull << 20);
  WorkloadGenerator generator(config, 1);
  Crc32Sink sink;
  ASSERT_TRUE(generator.Generate(&sink).ok());
  EXPECT_EQ(sink.crc(), 0x1d257b5fu);
  EXPECT_EQ(sink.events(), 267878u);
  EXPECT_EQ(generator.logical_node_count(), 2813u);
}

// perfbench's file_write_heavy stream: 5 MB allocated, write-heavy visits,
// denser edges.
TEST(GeneratorTest, FileWriteHeavyStreamIsPinned) {
  WorkloadConfig config =
      PaperBaseConfig().workload.WithTotalAllocation(5ull << 20);
  config.visit_modify_prob = 0.20;
  config.dense_edge_prob = 0.167;
  WorkloadGenerator generator(config, 1);
  Crc32Sink sink;
  ASSERT_TRUE(generator.Generate(&sink).ok());
  EXPECT_EQ(sink.crc(), 0x48ed2f9bu);
  EXPECT_EQ(sink.events(), 1994878u);
  EXPECT_EQ(generator.logical_node_count(), 21592u);
}

}  // namespace
}  // namespace odbgc
