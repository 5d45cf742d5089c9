#include "recovery/checkpoint_manager.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/config.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace odbgc {
namespace {

SimulationConfig TinyConfig(uint64_t seed = 1) {
  SimulationConfig config;
  config.heap.store.page_size = 1024;
  config.heap.store.pages_per_partition = 16;
  config.heap.buffer_pages = 16;
  config.heap.overwrite_trigger = 30;
  config.seed = seed;
  config.workload.target_live_bytes = 96ull << 10;
  config.workload.total_alloc_bytes = 240ull << 10;
  config.workload.tree_nodes_min = 60;
  config.workload.tree_nodes_max = 200;
  config.workload.large_object_size = 4096;
  return config;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "odbgc_ckpt_test/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// A simulation paused mid-run, ready to snapshot.
struct PartialRun {
  std::unique_ptr<Simulator> simulator;
  std::unique_ptr<WorkloadGenerator> generator;
};

PartialRun RunPartway(const SimulationConfig& config, int rounds) {
  PartialRun run;
  run.simulator = std::make_unique<Simulator>(config);
  run.generator =
      std::make_unique<WorkloadGenerator>(config.workload, config.seed);
  EXPECT_TRUE(run.generator->BuildInitialDatabase(run.simulator.get()).ok());
  for (int i = 0; i < rounds && !run.generator->Done(); ++i) {
    EXPECT_TRUE(run.generator->RunRound(run.simulator.get()).ok());
  }
  return run;
}

std::string CheckpointBytes(const Simulator& simulator,
                            const WorkloadGenerator& generator) {
  std::ostringstream out;
  EXPECT_TRUE(simulator.SaveCheckpointState(out).ok());
  generator.SaveState(out);
  return out.str();
}

TEST(CheckpointManagerTest, WriteThenLoadRestoresIdenticalState) {
  const SimulationConfig config = TinyConfig();
  CheckpointManager manager(FreshDir("roundtrip"));
  ASSERT_TRUE(manager.Init().ok());

  PartialRun original = RunPartway(config, 40);
  const uint64_t round = original.generator->rounds_run();
  ASSERT_TRUE(
      manager.WriteSnapshot(round, *original.simulator, *original.generator)
          .ok());

  auto loaded = manager.LoadSnapshot(round, config);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->round, round);

  // The restored pair re-serializes to the exact bytes of the original —
  // the strongest statement that nothing was lost or perturbed.
  EXPECT_EQ(CheckpointBytes(*loaded->simulator, *loaded->generator),
            CheckpointBytes(*original.simulator, *original.generator));

  // And both continue identically.
  for (int i = 0; i < 20 && !original.generator->Done(); ++i) {
    ASSERT_TRUE(original.generator->RunRound(original.simulator.get()).ok());
    ASSERT_TRUE(loaded->generator->RunRound(loaded->simulator.get()).ok());
  }
  EXPECT_EQ(CheckpointBytes(*loaded->simulator, *loaded->generator),
            CheckpointBytes(*original.simulator, *original.generator));
}

TEST(CheckpointManagerTest, ListSnapshotsSortsByRound) {
  const SimulationConfig config = TinyConfig();
  CheckpointManager manager(FreshDir("list"));
  ASSERT_TRUE(manager.Init().ok());
  PartialRun run = RunPartway(config, 5);
  for (uint64_t round : {30u, 5u, 100u}) {
    ASSERT_TRUE(
        manager.WriteSnapshot(round, *run.simulator, *run.generator).ok());
  }
  auto rounds = manager.ListSnapshots();
  ASSERT_TRUE(rounds.ok());
  EXPECT_EQ(*rounds, (std::vector<uint64_t>{5, 30, 100}));
}

TEST(CheckpointManagerTest, CorruptNewestFallsBackToOlder) {
  const SimulationConfig config = TinyConfig();
  CheckpointManager manager(FreshDir("fallback"));
  ASSERT_TRUE(manager.Init().ok());
  PartialRun run = RunPartway(config, 10);
  ASSERT_TRUE(manager.WriteSnapshot(10, *run.simulator, *run.generator).ok());
  ASSERT_TRUE(manager.WriteSnapshot(20, *run.simulator, *run.generator).ok());

  // Flip a payload byte in the newest snapshot: its CRC catches it.
  const std::string newest = manager.SnapshotPath(20);
  {
    std::fstream file(newest,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(200);
    char byte = 0;
    file.read(&byte, 1);
    byte ^= 0x5a;
    file.seekp(200);
    file.write(&byte, 1);
  }
  EXPECT_EQ(manager.LoadSnapshot(20, config).status().code(),
            StatusCode::kCorruption);

  auto loaded = manager.LoadNewestValid(config);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->round, 10u);
}

TEST(CheckpointManagerTest, EmptyDirectoryIsNotFound) {
  CheckpointManager manager(FreshDir("none"));
  ASSERT_TRUE(manager.Init().ok());
  EXPECT_EQ(manager.LoadNewestValid(TinyConfig()).status().code(),
            StatusCode::kNotFound);
}

TEST(CheckpointManagerTest, SeedAndPolicyMismatchRejected) {
  const SimulationConfig config = TinyConfig();
  CheckpointManager manager(FreshDir("mismatch"));
  ASSERT_TRUE(manager.Init().ok());
  PartialRun run = RunPartway(config, 10);
  ASSERT_TRUE(manager.WriteSnapshot(10, *run.simulator, *run.generator).ok());

  SimulationConfig other_seed = config;
  other_seed.seed = config.seed + 1;
  EXPECT_EQ(manager.LoadSnapshot(10, other_seed).status().code(),
            StatusCode::kCorruption);

  SimulationConfig other_policy = config;
  other_policy.heap.policy = PolicyKind::kRandom;
  EXPECT_EQ(manager.LoadSnapshot(10, other_policy).status().code(),
            StatusCode::kCorruption);
}

TEST(CheckpointManagerTest, TruncatedAndBadHeaderFilesNeverCrash) {
  const SimulationConfig config = TinyConfig();
  CheckpointManager manager(FreshDir("headers"));
  ASSERT_TRUE(manager.Init().ok());
  PartialRun run = RunPartway(config, 10);
  ASSERT_TRUE(manager.WriteSnapshot(7, *run.simulator, *run.generator).ok());

  std::string bytes;
  {
    std::ifstream in(manager.SnapshotPath(7), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Truncations at a sweep of prefixes: always a clean error.
  for (size_t cut : {0ul, 1ul, 4ul, 7ul, 8ul, 15ul, 16ul, 100ul,
                     bytes.size() / 2, bytes.size() - 1}) {
    std::ofstream out(manager.SnapshotPath(7),
                      std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    EXPECT_EQ(manager.LoadSnapshot(7, config).status().code(),
              StatusCode::kCorruption)
        << "cut=" << cut;
  }
  // Bad magic.
  {
    std::string bad = bytes;
    bad[0] ^= 0xff;
    std::ofstream out(manager.SnapshotPath(7),
                      std::ios::binary | std::ios::trunc);
    out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
  }
  EXPECT_EQ(manager.LoadSnapshot(7, config).status().code(),
            StatusCode::kCorruption);
  // Bad version.
  {
    std::string bad = bytes;
    bad[4] ^= 0xff;
    std::ofstream out(manager.SnapshotPath(7),
                      std::ios::binary | std::ios::trunc);
    out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
  }
  EXPECT_EQ(manager.LoadSnapshot(7, config).status().code(),
            StatusCode::kCorruption);
}

TEST(CheckpointManagerTest, GarbageCollectKeepsNewestTwoAndTheirWal) {
  const SimulationConfig config = TinyConfig();
  CheckpointManager manager(FreshDir("gc"), /*keep=*/2);
  ASSERT_TRUE(manager.Init().ok());
  PartialRun run = RunPartway(config, 5);
  for (uint64_t round : {10u, 20u, 30u, 40u}) {
    ASSERT_TRUE(
        manager.WriteSnapshot(round, *run.simulator, *run.generator).ok());
    std::ofstream(manager.WalPath(round), std::ios::binary) << "x";
  }
  std::ofstream(manager.WalPath(0), std::ios::binary) << "x";
  std::ofstream(manager.SnapshotPath(99) + ".tmp", std::ios::binary) << "x";

  ASSERT_TRUE(manager.GarbageCollect().ok());

  auto rounds = manager.ListSnapshots();
  ASSERT_TRUE(rounds.ok());
  EXPECT_EQ(*rounds, (std::vector<uint64_t>{30, 40}));
  EXPECT_FALSE(std::filesystem::exists(manager.WalPath(0)));
  EXPECT_FALSE(std::filesystem::exists(manager.WalPath(10)));
  EXPECT_FALSE(std::filesystem::exists(manager.WalPath(20)));
  EXPECT_TRUE(std::filesystem::exists(manager.WalPath(30)));
  EXPECT_TRUE(std::filesystem::exists(manager.WalPath(40)));
  EXPECT_FALSE(
      std::filesystem::exists(manager.SnapshotPath(99) + ".tmp"));
}

TEST(CheckpointManagerTest, GarbageCollectWithoutSnapshotsKeepsWalZero) {
  CheckpointManager manager(FreshDir("gc_empty"));
  ASSERT_TRUE(manager.Init().ok());
  std::ofstream(manager.WalPath(0), std::ios::binary) << "x";
  ASSERT_TRUE(manager.GarbageCollect().ok());
  EXPECT_TRUE(std::filesystem::exists(manager.WalPath(0)));
}

// Round-trip across the dense data-plane layout: one configuration per
// serde path that moved from node-based containers onto id-indexed
// arrays — the weight table and weighted policy sums (WeightedPointer),
// the per-partition hint counters (MutatedPartition), the extension
// policies' tables (LeastRecentlyCollected, CostBenefit), and the
// clock/2Q replacement state (intrusive frame lists). A snapshot written
// mid-run must restore to a state that re-serializes to the exact same
// bytes, and must continue to the same bytes afterwards — the layout
// change is invisible to the checkpoint format.
//
// gtest prints this struct's raw bytes into each case's test name. The
// enums lead so that those names start with fixed bytes; the padding and
// the string pointers after them change from run to run (ASLR).
struct DenseLayoutParams {
  // LoadSnapshot validates the checkpoint's resolved kind against the
  // config enum, so both identity surfaces must agree here.
  PolicyKind policy;
  ReplacementPolicyKind replacement;
  const char* name;
  const char* policy_name;
};

class DenseLayoutRoundTrip
    : public ::testing::TestWithParam<DenseLayoutParams> {};

TEST_P(DenseLayoutRoundTrip, SnapshotRestoresBitIdentical) {
  SimulationConfig config = TinyConfig(11);
  config.heap.policy_name = GetParam().policy_name;
  config.heap.policy = GetParam().policy;
  config.heap.replacement = GetParam().replacement;
  CheckpointManager manager(FreshDir(std::string("dense_") +
                                     GetParam().name));
  ASSERT_TRUE(manager.Init().ok());

  PartialRun original = RunPartway(config, 40);
  const uint64_t round = original.generator->rounds_run();
  ASSERT_TRUE(
      manager.WriteSnapshot(round, *original.simulator, *original.generator)
          .ok());

  auto loaded = manager.LoadSnapshot(round, config);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(CheckpointBytes(*loaded->simulator, *loaded->generator),
            CheckpointBytes(*original.simulator, *original.generator));

  for (int i = 0; i < 20 && !original.generator->Done(); ++i) {
    ASSERT_TRUE(original.generator->RunRound(original.simulator.get()).ok());
    ASSERT_TRUE(loaded->generator->RunRound(loaded->simulator.get()).ok());
  }
  EXPECT_EQ(CheckpointBytes(*loaded->simulator, *loaded->generator),
            CheckpointBytes(*original.simulator, *original.generator));
}

INSTANTIATE_TEST_SUITE_P(
    DensePaths, DenseLayoutRoundTrip,
    ::testing::Values(
        DenseLayoutParams{PolicyKind::kWeightedPointer,
                          ReplacementPolicyKind::kLru, "weighted",
                          "WeightedPointer"},
        DenseLayoutParams{PolicyKind::kMutatedPartition,
                          ReplacementPolicyKind::kLru, "mutated",
                          "MutatedPartition"},
        DenseLayoutParams{PolicyKind::kUpdatedPointer,
                          ReplacementPolicyKind::kLru, "lrc",
                          "LeastRecentlyCollected"},
        DenseLayoutParams{PolicyKind::kUpdatedPointer,
                          ReplacementPolicyKind::kLru, "costbenefit",
                          "CostBenefit"},
        DenseLayoutParams{PolicyKind::kUpdatedPointer,
                          ReplacementPolicyKind::kClock, "clock",
                          "UpdatedPointer"},
        DenseLayoutParams{PolicyKind::kUpdatedPointer,
                          ReplacementPolicyKind::kTwoQ, "twoq",
                          "UpdatedPointer"}),
    [](const ::testing::TestParamInfo<DenseLayoutParams>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace odbgc
