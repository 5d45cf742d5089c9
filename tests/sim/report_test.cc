#include "sim/report.h"

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace odbgc {
namespace {

SimulationResult FakeRun(PolicyKind policy, uint64_t seed, uint64_t app_io,
                         uint64_t gc_io, uint64_t max_storage,
                         uint64_t reclaimed, uint64_t unreclaimed) {
  SimulationResult r;
  r.policy = policy;
  r.seed = seed;
  r.app_io = app_io;
  r.gc_io = gc_io;
  r.max_storage_bytes = max_storage;
  r.max_partitions = max_storage / (48 * 8192);
  r.garbage_reclaimed_bytes = reclaimed;
  r.unreclaimed_garbage_bytes = unreclaimed;
  r.collections = 25;
  return r;
}

Experiment FakeExperiment() {
  Experiment e;
  PolicyRuns most;
  most.name = "MostGarbage";
  most.runs = {FakeRun(PolicyKind::kMostGarbage, 1, 32000, 1500,
                       7000ull << 10, 4700ull << 10, 2300ull << 10),
               FakeRun(PolicyKind::kMostGarbage, 2, 34000, 1600,
                       7400ull << 10, 4800ull << 10, 2200ull << 10)};
  PolicyRuns updated;
  updated.name = "UpdatedPointer";
  updated.runs = {FakeRun(PolicyKind::kUpdatedPointer, 1, 33000, 1650,
                          7700ull << 10, 4300ull << 10, 2700ull << 10),
                  FakeRun(PolicyKind::kUpdatedPointer, 2, 35000, 1750,
                          8100ull << 10, 4400ull << 10, 2600ull << 10)};
  e.sets = {most, updated};
  return e;
}

TEST(ReportTest, SummarizeComputesAggregates) {
  const auto summaries = Summarize(FakeExperiment());
  ASSERT_EQ(summaries.size(), 2u);
  const PolicySummary& most = summaries[0];
  EXPECT_EQ(most.name, "MostGarbage");
  EXPECT_DOUBLE_EQ(most.app_io.mean(), 33000.0);
  EXPECT_DOUBLE_EQ(most.gc_io.mean(), 1550.0);
  EXPECT_DOUBLE_EQ(most.total_io.mean(), 34550.0);
  // Relative-to-baseline of the baseline itself is exactly 1.
  EXPECT_DOUBLE_EQ(most.relative_total_io.mean(), 1.0);
  EXPECT_DOUBLE_EQ(most.relative_total_io.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(most.relative_max_storage.mean(), 1.0);

  const PolicySummary& updated = summaries[1];
  // Paired per seed: (34650/33500 + 36750/35600) / 2.
  EXPECT_NEAR(updated.relative_total_io.mean(),
              (34650.0 / 33500.0 + 36750.0 / 35600.0) / 2, 1e-9);
  EXPECT_GT(updated.relative_max_storage.mean(), 1.0);
}

// The whitespace-separated cells of the row of `table` that starts with
// `policy` (empty when there is none).
std::vector<std::string> RowCells(const std::string& table,
                                  const std::string& policy) {
  std::istringstream lines(table);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(policy, 0) != 0) continue;
    std::istringstream words(line);
    std::vector<std::string> cells;
    for (std::string cell; words >> cell;) cells.push_back(cell);
    return cells;
  }
  return {};
}

TEST(ReportTest, SummarizeWithoutBaselineSkipsRelative) {
  Experiment e = FakeExperiment();
  e.sets.erase(e.sets.begin());  // Drop MostGarbage.
  const auto summaries = Summarize(e);
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_EQ(summaries[0].relative_total_io.count(), 0u);

  // With nothing to divide by, the relative cells print "-", not 0.
  std::ostringstream throughput;
  PrintThroughputTable(summaries, throughput);
  const auto cells = RowCells(throughput.str(), "UpdatedPointer");
  ASSERT_EQ(cells.size(), 8u) << throughput.str();
  EXPECT_EQ(cells[6], "-");
  EXPECT_EQ(cells[7], "-");
  std::ostringstream efficiency;
  PrintEfficiencyTable(summaries, efficiency);
  const auto efficiency_cells = RowCells(efficiency.str(), "UpdatedPointer");
  ASSERT_EQ(efficiency_cells.size(), 7u) << efficiency.str();
  EXPECT_EQ(efficiency_cells.back(), "-");
}

TEST(ReportTest, FractionAndEfficiency) {
  const auto summaries = Summarize(FakeExperiment());
  const PolicySummary& most = summaries[0];
  // Seed 1: 4700 / 7000 = 67.1%.
  EXPECT_NEAR(most.fraction_reclaimed_pct.mean(),
              (4700.0 / 7000.0 + 4800.0 / 7000.0) / 2 * 100, 0.2);
  EXPECT_NEAR(most.efficiency_kb_per_io.mean(),
              (4700.0 / 1500.0 + 4800.0 / 1600.0) / 2, 1e-6);
  EXPECT_DOUBLE_EQ(most.actual_garbage_kb.mean(), 7000.0);
}

TEST(ReportTest, TablesContainPolicyRows) {
  const auto summaries = Summarize(FakeExperiment());
  for (auto printer : {PrintThroughputTable, PrintStorageTable,
                       PrintEfficiencyTable}) {
    std::ostringstream os;
    printer(summaries, os);
    const std::string out = os.str();
    EXPECT_NE(out.find("MostGarbage"), std::string::npos);
    EXPECT_NE(out.find("UpdatedPointer"), std::string::npos);
  }
}

TEST(ReportTest, EfficiencyTableHasActualGarbageRow) {
  std::ostringstream os;
  PrintEfficiencyTable(Summarize(FakeExperiment()), os);
  EXPECT_NE(os.str().find("Actual Garbage"), std::string::npos);
  EXPECT_NE(os.str().find("7000"), std::string::npos);
}

}  // namespace
}  // namespace odbgc
