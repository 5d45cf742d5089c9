// One program for every table, figure and ablation of the paper's
// evaluation (DESIGN.md §4-§5). Each sweep is data: a policy list, a
// default seed count and one axis (row labels plus one SimulationConfig
// mutator per value), with columns drawn from one catalogue of
// SimulationResult metrics. One loop runs them all: an experiment per axis
// value, a RunningStat per cell, and TablePrinter or sim/report.h to print.
// Policies replay identical seeded traces, so the differences within a row
// are the selection policy's alone.
//
//   sweep [name...]   the named sweeps in paper order; none = all of them
//
//   ODBGC_SEEDS=<n>         runs per configuration (default: per sweep)
//   ODBGC_FAST=1            quarter-size workloads, 2 seeds
//   ODBGC_MANIFEST_DIR=<d>  one run manifest per (point, policy, seed) in
//                           <d>/<sweep>/<point>/, which odbgc-report reads
//                           (the two sweeps with their own loop write none)

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/reachability.h"
#include "sim/report.h"
#include "sim/runner.h"
#include "sim/simulator.h"
#include "util/statistics.h"
#include "util/table_printer.h"
#include "util/time_series.h"
#include "workload/oo1_generator.h"

namespace odbgc::bench {
namespace {

int SeedsOrDefault(int fallback) {
  const char* env = std::getenv("ODBGC_SEEDS");
  if (env != nullptr && std::atoi(env) > 0) return std::atoi(env);
  return FastMode() ? 2 : fallback;
}

// ---- The metric catalogue --------------------------------------------------

/// Metric::digits for a whole number (FormatCount).
constexpr int kCount = -1;

/// One reading of a run, and how a table prints its mean over seeds.
/// `point` is the configuration the run's axis value produced.
struct Metric {
  const char* header;
  int digits;  // FormatDouble digits, or kCount.
  double (*of)(const SimulationConfig& point, const SimulationResult& run);
};

double Num(uint64_t value) { return static_cast<double>(value); }
double Kb(uint64_t bytes) { return Num(bytes) / 1024.0; }

const Metric kAppIo{"App I/Os", kCount,
                    [](auto&, auto& r) { return Num(r.app_io); }};
const Metric kGcIo{"GC I/Os", kCount,
                   [](auto&, auto& r) { return Num(r.gc_io); }};
const Metric kTotalIo{"Total I/Os", kCount,
                      [](auto&, auto& r) { return Num(r.total_io()); }};
const Metric kPageIos{"Page I/Os", kCount,
                      [](auto&, auto& r) { return Num(r.disk_stats.total()); }};
const Metric kSequential{"Sequential %", 1, [](auto&, auto& r) {
  const DiskStats& d = r.disk_stats;
  const double all = Num(d.sequential_transfers + d.random_transfers);
  return all == 0 ? 0.0 : 100.0 * d.sequential_transfers / all;
}};
const Metric kReclaimed{"Reclaimed (KB)", kCount, [](auto&, auto& r) {
                          return Kb(r.garbage_reclaimed_bytes);
                        }};
const Metric kUnreclaimed{"Unreclaimed (KB)", kCount, [](auto&, auto& r) {
                            return Kb(r.unreclaimed_garbage_bytes);
                          }};
const Metric kFraction{"% of garbage", 1,
                       [](auto&, auto& r) { return r.FractionReclaimedPct(); }};
const Metric kEfficiency{"Efficiency (KB/IO)", 2,
                         [](auto&, auto& r) { return r.EfficiencyKbPerIo(); }};
const Metric kStorage{"Max storage (KB)", kCount,
                      [](auto&, auto& r) { return Kb(r.max_storage_bytes); }};
const Metric kStorageMb{"Max storage (MB)", 1, [](auto&, auto& r) {
                          return Num(r.max_storage_bytes) / (1 << 20);
                        }};
const Metric kPartitions{"Partitions", 1,
                         [](auto&, auto& r) { return Num(r.max_partitions); }};
const Metric kCollections{"Collections", 1,
                          [](auto&, auto& r) { return Num(r.collections); }};
/// Each activation collects partitions_per_collection partitions.
const Metric kActivations{"Activations", 1, [](auto& c, auto& r) {
                            return Num(r.collections) /
                                   c.heap.partitions_per_collection;
                          }};
const Metric kFullGcs{"Full GCs", 1, [](auto&, auto& r) {
                        return Num(r.heap_stats.full_collections);
                      }};
const Metric kRemset{"Remset entries", kCount,
                     [](auto&, auto& r) { return Num(r.remset_entries); }};
// Single-run figure readings (the series need snapshot_interval > 0).
const Metric kFinalUnreclaimed{
    "Final unreclaimed (KB)", kCount,
    [](auto&, auto& r) { return r.unreclaimed_garbage_kb.LastY(); }};
const Metric kPeakUnreclaimed{"Peak (KB)", kCount, [](auto&, auto& r) {
                                return r.unreclaimed_garbage_kb.MaxY();
                              }};
const Metric kFinalSize{"Final size (KB)", kCount, [](auto&, auto& r) {
                          return r.database_size_kb.LastY();
                        }};
const Metric kFinalPartitions{"Partitions", kCount, [](auto&, auto& r) {
                                return Num(r.final_partitions);
                              }};

/// `metric` under another column header.
Metric Named(Metric metric, const char* header) {
  metric.header = header;
  return metric;
}

std::string Format(const Metric& metric, double value) {
  return metric.digits == kCount ? FormatCount(value)
                                 : FormatDouble(value, metric.digits);
}

// ---- Sweeps ----------------------------------------------------------------

/// One axis value: its row-label cells and its change to the base config.
struct Point {
  std::vector<std::string> labels;
  std::function<void(SimulationConfig&)> apply;
};

/// A column: `metric`'s mean over seeds, read from `policy`'s runs
/// (default: the row's policy); with `over`, that mean divided by the same
/// mean over `over`'s runs.
struct Column {
  Column(Metric m, const char* p = nullptr, const char* o = nullptr)
      : metric(m), policy(p), over(o) {}
  Metric metric;
  const char* policy;
  const char* over;
};

/// Row layouts. `labels` head the row-label columns; the policy's label is
/// the last for kPointPolicy and the first for kPolicyPoint.
enum class Rows {
  kPoint,        // One per point; each column reads one policy.
  kPointPolicy,  // One per (point, policy), points outermost.
  kPolicyPoint,  // One per (policy, point), policies outermost.
  kPolicy,       // One per policy and a column per point (columns[0]),
                 // then, below a rule, one per further column.
};

/// A sim/report.h table, printed for each point.
using Report = void (*)(const std::vector<PolicySummary>&, std::ostream&);

/// The experiment at one axis point, and the configuration it ran.
struct PointRuns {
  SimulationConfig config;
  Experiment experiment;
};
using Grid = std::vector<PointRuns>;

struct Sweep;
void RunGrid(const Sweep& sweep);

struct Sweep {
  const char* name;
  const char* title;
  const char* paper_ref;
  std::vector<std::string> policies = PaperPolicyNames();
  /// Runs per (point, policy) unless ODBGC_SEEDS or ODBGC_FAST say
  /// otherwise; 0 = one run at seed 1 whatever they say (a figure's trace).
  int seeds = 5;
  Rows rows = Rows::kPoint;
  std::vector<std::string> labels = {};
  /// Empty: one unlabelled point, the base configuration.
  std::vector<Point> points = {};
  std::vector<Column> columns = {};
  const char* caption = "";
  std::vector<Report> reports = {};
  /// Plots and data files, after the tables.
  void (*figure)(const Sweep&, const Grid&) = nullptr;
  const char* reading = "";
  /// RunGrid, or a sweep's own loop.
  void (*run)(const Sweep&) = RunGrid;
};

double Mean(const PointRuns& at, const std::string& policy,
            const Metric& metric) {
  RunningStat stat;
  for (const SimulationResult& run : at.experiment.Find(policy)->runs) {
    stat.Add(metric.of(at.config, run));
  }
  return stat.mean();
}

std::string Cell(const PointRuns& at, const std::string& row_policy,
                 const Column& column) {
  const double mean = Mean(at, column.policy ? column.policy : row_policy,
                           column.metric);
  if (column.over == nullptr) return Format(column.metric, mean);
  return FormatDouble(mean / Mean(at, column.over, column.metric), 3);
}

TablePrinter Table(const Sweep& sweep, const Grid& grid,
                   const std::vector<Column>& columns) {
  std::vector<std::string> headers = sweep.labels;
  if (sweep.rows == Rows::kPolicy) {
    for (const Point& point : sweep.points) headers.push_back(point.labels[0]);
    TablePrinter table(std::move(headers));
    for (size_t c = 0; c < columns.size(); ++c) {
      if (c == 1) table.AddSeparator();
      const Column& column = columns[c];
      for (const std::string& policy :
           c == 0 ? sweep.policies : std::vector<std::string>{column.policy}) {
        std::vector<std::string> row{c == 0 ? policy : column.metric.header};
        for (const PointRuns& at : grid) {
          row.push_back(Cell(at, policy, column));
        }
        table.AddRow(std::move(row));
      }
    }
    return table;
  }
  for (const Column& column : columns) headers.push_back(column.metric.header);
  TablePrinter table(std::move(headers));
  const bool policy_first = sweep.rows == Rows::kPolicyPoint;
  const size_t policies =
      sweep.rows == Rows::kPoint ? 1 : sweep.policies.size();
  for (size_t i = 0; i < grid.size() * policies; ++i) {
    const size_t p = policy_first ? i % grid.size() : i / policies;
    const std::string& policy =
        sweep.policies[policy_first ? i / grid.size() : i % policies];
    std::vector<std::string> row;
    if (!sweep.points.empty()) row = sweep.points[p].labels;
    if (policy_first) row.insert(row.begin(), policy);
    if (sweep.rows == Rows::kPointPolicy) row.push_back(policy);
    for (const Column& column : columns) {
      row.push_back(Cell(grid[p], policy, column));
    }
    table.AddRow(std::move(row));
  }
  return table;
}

/// A point's manifest subdirectory: its first label with each run of
/// characters outside [A-Za-z0-9.-] made one '_' ("C = 1.167" ->
/// "C_1.167"); "base" for a sweep's one unlabelled point.
std::string PointDir(const Point& point) {
  std::string dir;
  for (const char c : point.labels.empty() ? "base" : point.labels[0]) {
    const bool keep = std::isalnum(static_cast<unsigned char>(c)) ||
                      c == '.' || c == '-';
    if (keep || (!dir.empty() && dir.back() != '_')) dir += keep ? c : '_';
  }
  if (!dir.empty() && dir.back() == '_') dir.pop_back();
  return dir;
}

void RunGrid(const Sweep& sweep) {
  const int seeds = sweep.seeds == 0 ? 1 : SeedsOrDefault(sweep.seeds);
  const char* manifest_root = std::getenv("ODBGC_MANIFEST_DIR");
  std::vector<Point> points = sweep.points;
  if (points.empty()) points.push_back({{}, [](SimulationConfig&) {}});
  std::printf("running %zu point(s) x %zu policies x %d seeds...\n\n",
              points.size(), sweep.policies.size(), seeds);

  Grid grid;
  for (const Point& point : points) {
    SimulationConfig config = BaseConfig();
    point.apply(config);
    ExperimentSpec spec = ExperimentSpec::Base(config)
                              .WithPolicies(sweep.policies)
                              .WithSeeds(seeds);
    if (manifest_root != nullptr) {
      spec.manifest_dir = std::string(manifest_root) + "/" + sweep.name +
                          "/" + PointDir(point);
    }
    auto experiment = RunExperiment(spec);
    if (!experiment.ok()) Fail(experiment.status(), sweep.name);
    grid.push_back({std::move(config), std::move(experiment).value()});
  }

  if (!sweep.columns.empty()) {
    std::cout << sweep.caption;
    Table(sweep, grid, sweep.columns).Print(std::cout);
  }
  for (size_t p = 0; p < grid.size() && !sweep.reports.empty(); ++p) {
    if (p > 0 || !sweep.columns.empty()) std::cout << '\n';
    if (!sweep.points.empty()) {
      std::cout << "--- " << sweep.points[p].labels[0] << " ---\n";
    }
    const std::vector<PolicySummary> summaries = Summarize(grid[p].experiment);
    for (size_t r = 0; r < sweep.reports.size(); ++r) {
      if (r > 0) std::cout << '\n';
      sweep.reports[r](summaries, std::cout);
    }
  }
  if (sweep.figure != nullptr) sweep.figure(sweep, grid);
}

// ---- Figures ---------------------------------------------------------------

// Figures 4 and 5 plot the same runs (census snapshots leave the size
// series, storage and partition counts unchanged). Each gets one series
// per policy, an ASCII rendering, a summary table, and gnuplot and CSV
// data files in the working directory.
void PlotFigures4And5(const Sweep& sweep, const Grid& grid) {
  const struct {
    const char* stem;
    const char* caption;
    TimeSeries SimulationResult::*series;
    std::vector<Column> columns;
  } figures[] = {
      {"fig4_unreclaimed_garbage",
       "Figure 4: unreclaimed garbage (KB) vs application events:\n",
       &SimulationResult::unreclaimed_garbage_kb,
       {kFinalUnreclaimed, kPeakUnreclaimed, kReclaimed,
        Metric{"Collections", kCount, kCollections.of}}},
      {"fig5_database_size",
       "Figure 5: database size (KB) vs application events:\n",
       &SimulationResult::database_size_kb,
       {kFinalSize, Named(kStorage, "Max size (KB)"), kFinalPartitions}},
  };
  for (const auto& figure : figures) {
    std::vector<TimeSeries> series;
    for (const PolicyRuns& set : grid[0].experiment.sets) {
      series.emplace_back(set.name);
      for (const auto& point : (set.runs[0].*figure.series).points()) {
        series.back().Add(point.x, point.y);
      }
    }
    std::cout << figure.caption;
    RenderAscii(series, std::cout, 72, 20);
    std::cout << '\n';
    Table(sweep, grid, figure.columns).Print(std::cout);
    std::ofstream dat(std::string(figure.stem) + ".dat");
    WriteGnuplot(series, dat);
    std::ofstream csv(std::string(figure.stem) + ".csv");
    WriteCsv(series, csv);
    std::printf("\nwrote %s.dat (gnuplot) and .csv\n\n", figure.stem);
  }
}

// Figure 6 plots each column's mean against the axis label, the maximum
// allocated MB.
void PlotFigure6(const Sweep& sweep, const Grid& grid) {
  std::vector<TimeSeries> series;
  for (const Column& column : sweep.columns) {
    series.emplace_back(column.policy);
    for (size_t p = 0; p < grid.size(); ++p) {
      series.back().Add(std::stod(sweep.points[p].labels[0]),
                        Mean(grid[p], column.policy, column.metric));
    }
  }
  std::printf("\nStorage required (MB) vs maximum allocated (MB):\n");
  RenderAscii(series, std::cout, 60, 16);
  std::ofstream csv("fig6_scalability.csv");
  WriteCsv(series, csv);
  std::printf("\nwrote fig6_scalability.csv\n");
}

// ---- Sweeps with their own loop --------------------------------------------

// The garbage anatomy needs the run's heap, which RunExperiment does not
// keep: one UpdatedPointer run per connectivity.
void RunCycles(const Sweep& sweep) {
  TablePrinter table({"Connectivity", kUnreclaimed.header,
                      "Locally collectable (KB)", "Nepotism (KB)",
                      "Cross-partition cycles (KB)", "% reclaimed"});
  for (double connectivity : {1.005, 1.040, 1.083, 1.167, 1.30}) {
    SimulationConfig config = BaseConfig();
    config.workload = config.workload.WithConnectivity(connectivity);
    config.heap.policy = PolicyKind::kUpdatedPointer;
    Simulator simulator(config);
    if (Status status = simulator.Run(); !status.ok()) Fail(status, sweep.name);
    const SimulationResult run = simulator.Finish();
    const GarbageAnatomy anatomy =
        ComputeGarbageAnatomy(simulator.heap().store());
    table.AddRow({FormatDouble(connectivity, 3),
                  Format(kUnreclaimed, kUnreclaimed.of(config, run)),
                  FormatCount(Kb(anatomy.locally_collectable_bytes)),
                  FormatCount(Kb(anatomy.nepotism_bytes)),
                  FormatCount(Kb(anatomy.cross_partition_cycle_bytes)),
                  Format(kFraction, kFraction.of(config, run))});
  }
  std::cout << sweep.caption;
  table.Print(std::cout);
}

// OO1Generator drives each run in place of the configured tree workload,
// so the grid runs through RunExperimentWith, and writes no manifests
// (their workload section would describe the tree workload).
void RunOo1(const Sweep& sweep) {
  OO1Config workload;
  workload.target_live_bytes = (4ull << 20) / (FastMode() ? 4 : 1);
  workload.total_alloc_bytes = (9ull << 20) / (FastMode() ? 4 : 1);
  Grid grid(1);
  grid[0].config = PaperBaseConfig();
  // OO1 deletes produce ~4 overwrites each (index unhook + incoming
  // connection clears); scale the trigger to land near the paper's 25-40
  // collections per run.
  grid[0].config.heap.overwrite_trigger = 6000;
  auto experiment = RunExperimentWith(
      ExperimentSpec::Base(grid[0].config)
          .WithPolicies(sweep.policies)
          .WithSeeds(SeedsOrDefault(sweep.seeds)),
      [&workload](const SimulationConfig& config) -> Result<SimulationResult> {
        Simulator simulator(config);
        ODBGC_RETURN_IF_ERROR(
            OO1Generator(workload, config.seed).Generate(&simulator));
        return simulator.Finish();
      });
  if (!experiment.ok()) Fail(experiment.status(), sweep.name);
  grid[0].experiment = std::move(experiment).value();
  Table(sweep, grid, sweep.columns).Print(std::cout);
}

// ---- The sweeps, in paper order --------------------------------------------

/// One point per (label, value), applied by `apply(config, value)`.
template <typename T, typename Apply>
std::vector<Point> Axis(std::vector<std::pair<std::string, T>> values,
                        Apply apply) {
  std::vector<Point> points;
  for (const auto& [label, v] : values) {
    points.push_back({{label}, [apply, value = v](SimulationConfig& c) {
                        apply(c, value);
                      }});
  }
  return points;
}

/// One point per value, labelled with the value.
template <typename Apply>
std::vector<Point> Axis(std::vector<uint32_t> values, Apply apply) {
  std::vector<std::pair<std::string, uint32_t>> labelled;
  for (uint32_t value : values) {
    labelled.emplace_back(std::to_string(value), value);
  }
  return Axis(labelled, apply);
}

std::vector<Sweep> Sweeps() {
  std::vector<Column> fig6_columns;
  for (const std::string& policy : PaperPolicyNames()) {
    fig6_columns.emplace_back(Named(kStorageMb, policy.c_str()),
                              policy.c_str());
  }
  // Buffer sizes are fractions of the base configuration's partition.
  std::vector<Point> buffer_points;
  for (double ratio : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    const size_t pages = static_cast<size_t>(
        BaseConfig().heap.store.pages_per_partition * ratio + 0.5);
    buffer_points.push_back(
        {{std::to_string(pages), FormatDouble(ratio, 2)},
         [pages](SimulationConfig& c) { c.heap.buffer_pages = pages; }});
  }

  return {
      {.name = "tables_2_4",
       .title = "Tables 2-4: Throughput, storage and collector efficiency",
       .paper_ref = "Tables 2, 3 and 4",
       .seeds = 10,
       .reports = {PrintThroughputTable, PrintStorageTable,
                   PrintEfficiencyTable},
       .reading = R"(
Paper's Table 2 (for shape comparison; absolute numbers depend on
the authors' private trace generator):
  NoCollection 1.073  MutatedPartition 1.092  Random 1.053
  WeightedPointer 1.041  UpdatedPointer 1.011  MostGarbage 1.000

Paper's Table 3 relative storage (MostGarbage = 1):
  NoCollection 1.529  MutatedPartition 1.263  Random 1.198
  WeightedPointer 1.178  UpdatedPointer 1.058  MostGarbage 1.000

Paper's Table 4 (% of garbage / relative efficiency):
  MutatedPartition 37% / 0.44   Random 45% / 0.56
  WeightedPointer 48% / 0.60    UpdatedPointer 62% / 0.82
  MostGarbage 68% / 1.00)"},
      {.name = "figures_4_5",
       .title = "Figures 4-5: Uncollected garbage and database size over time",
       .paper_ref = "Figures 4 and 5",
       .seeds = 0, .rows = Rows::kPointPolicy, .labels = {"Policy"},
       // A database about twice the size of the tables' runs.
       .points = {{{},
                   [](auto& c) {
                     c.workload = c.workload.WithTotalAllocation(
                         c.workload.total_alloc_bytes * 2);
                     c.snapshot_interval = FastMode() ? 100000 : 150000;
                     c.census_at_snapshots = true;
                   }}},
       .figure = PlotFigures4And5},
      {.name = "fig6_scalability",
       .title = "Figure 6: Storage required vs maximum allocated storage",
       .paper_ref = "Figure 6",
       .seeds = 2, .labels = {"Max Allocated (MB)"},
       // Partition (and buffer) size scales 24..100 pages with the database.
       .points = Axis(FastMode() ? std::vector<uint32_t>{2, 4, 8}
                                 : std::vector<uint32_t>{4, 10, 20, 40},
                      [](auto& c, uint32_t mb) {
                        c = ScaledConfig(uint64_t{mb} << 20);
                      }),
       .columns = fig6_columns,
       .caption = "Storage required (MB):\n",
       .figure = PlotFigure6},
      {.name = "table5_connectivity",
       .title = "Table 5: Database connectivity effects",
       .paper_ref = "Table 5",
       .seeds = 3, .rows = Rows::kPolicy, .labels = {"Selection Policy"},
       .points = Axis<double>({{"C = 1.167", 1.167},
                               {"C = 1.083", 1.083},
                               {"C = 1.040", 1.040},
                               {"C = 1.005", 1.005}},
                              [](auto& c, double connectivity) {
                                c.workload =
                                    c.workload.WithConnectivity(connectivity);
                              }),
       // Remembered-set size is the space cost the paper charges
       // partitioned collection; it grows with connectivity (Section 6.5).
       .columns = {kFraction,
                   {Named(kRemset, "(remset entries, UpdatedPointer)"),
                    "UpdatedPointer"}},
       .caption = "% of garbage reclaimed for given database connectivity C:\n",
       .reading = R"(
Paper's Table 5 (% reclaimed, C = 1.167 / 1.083 / 1.040 / 1.005):
  MutatedPartition 28.8 / 35.9 / 38.6 / 39.3
  Random           41.6 / 40.9 / 41.2 / 62.7
  WeightedPointer  41.4 / 50.1 / 53.1 / 57.8
  UpdatedPointer   57.6 / 61.1 / 62.5 / 74.7
  MostGarbage      66.5 / 66.3 / 61.6 / 79.0)"},
      {.name = "ablation_traversal",
       .title =
           "Ablation: collection traversal order (breadth- vs depth-first)",
       .paper_ref = "Table 1 policy alternative",
       .policies = {"UpdatedPointer", "MostGarbage"},
       .rows = Rows::kPolicyPoint, .labels = {"Policy", "Order"},
       .points = Axis<TraversalOrder>(
           {{"breadth-first", TraversalOrder::kBreadthFirst},
            {"depth-first", TraversalOrder::kDepthFirst}},
           [](auto& c, TraversalOrder order) { c.heap.traversal = order; }),
       .columns = {kTotalIo, kAppIo, kReclaimed, kStorage},
       .reading = R"(
Reading: reclamation is traversal-order independent (same live
set); the orders differ only through the copied layout's effect on
later application locality.)"},
      {.name = "ablation_trigger",
       .title = "Ablation: collection trigger threshold",
       .paper_ref = "Table 1 policy alternative ('when to collect')",
       .policies = {"UpdatedPointer"}, .labels = {"Trigger (overwrites)"},
       .points = Axis({50, 100, 150, 300, 600}, [](auto& c, uint32_t n) {
         c.heap.overwrite_trigger = n;
       }),
       .columns = {kCollections, kTotalIo, kGcIo, kReclaimed, kFraction,
                   kStorage},
       .reading = R"(
Reading (UpdatedPointer): collecting more often reclaims a larger
fraction and caps storage lower, at the cost of more collector I/O;
the paper's 150-300 band balances the two.)"},
      {.name = "ablation_trigger_kind",
       .title = "Ablation: collection trigger criterion",
       .paper_ref = "Table 1 policy alternative ('when to collect')",
       .policies = {"UpdatedPointer"}, .labels = {"Trigger"},
       // ~11 MB allocated and ~7k overwrites per run: 150 overwrites and
       // 320 KB of allocation both land near 30-35 collections; growth
       // fires once per new partition (~30 over a run).
       .points = Axis<TriggerKind>(
           {{"150 pointer overwrites", TriggerKind::kPointerOverwrites},
            {"320 KB allocated", TriggerKind::kAllocatedBytes},
            {"database growth", TriggerKind::kDatabaseGrowth}},
           [](auto& c, TriggerKind kind) {
             c.heap.trigger = kind;
             c.heap.allocation_trigger_bytes =
                 kind == TriggerKind::kAllocatedBytes ? 320u << 10 : 0;
           }),
       .columns = {kCollections, kTotalIo, kFraction, kEfficiency, kStorage},
       .reading = R"(
Reading (UpdatedPointer): overwrite-triggered collections fire
when garbage has just been created, so the policy's counters are
fresh; allocation- and growth-triggered collections fire on space
pressure, decoupled from garbage creation. The paper chose
overwrites for exactly the first property (Section 4.1).)"},
      {.name = "ablation_partition_size",
       .title = "Ablation: partition size (buffer = one partition)",
       .paper_ref = "Section 4.1 'Partition Organization'",
       .policies = {"UpdatedPointer"}, .labels = {"Pages/partition"},
       .points = Axis({12, 24, 48, 96, 192}, [](auto& c, uint32_t pages) {
         c.heap.store.pages_per_partition = pages;
         c.heap.buffer_pages = pages;
       }),
       .columns = {kPartitions, kCollections, kTotalIo, kFraction, kStorage,
                   kEfficiency},
       .reading = R"(
Reading (UpdatedPointer): the paper sizes partitions so the
database holds 15-25 of them — enough for selection policies to
differentiate, while each collection still reclaims a useful
fraction of the database.)"},
      {.name = "ablation_buffer_size",
       .title = "Ablation: buffer size relative to partition size",
       .paper_ref = "Section 5 'I/O Buffer Size'",
       .policies = {"UpdatedPointer", "NoCollection"},
       .labels = {"Buffer (pages)", "Buffer/partition"},
       .points = buffer_points,
       .columns = {kAppIo, kGcIo, kTotalIo,
                   {Named(kTotalIo, "NoCollection total I/Os"),
                    "NoCollection"}},
       .reading = R"(
Reading: undersized buffers inflate collector I/O (a collection's
working set is about one partition); oversized buffers absorb the
whole working set and flatten the GC-locality advantage over
NoCollection.)"},
      {.name = "ablation_multi_partition",
       .title = "Ablation: partitions collected per activation",
       .paper_ref = "Section 3.1 (single- vs multi-partition collection)",
       .policies = {"UpdatedPointer"}, .labels = {"k"},
       // The trigger scales with k, so every k collects the same total
       // number of partitions over the run.
       .points = Axis({1, 2, 4}, [](auto& c, uint32_t k) {
         c.heap.partitions_per_collection = k;
         c.heap.overwrite_trigger *= k;
       }),
       .columns = {kActivations, Named(kCollections, "Partitions collected"),
                   kTotalIo, kFraction, kStorage},
       .reading = R"(
Reading (UpdatedPointer, trigger scaled by k): batching
collections trades longer pauses for selecting deeper into the
policy's ranking — the 2nd/3rd/4th picks carry progressively
weaker hints, so reclamation per collected partition drops.)"},
      {.name = "ablation_placement",
       .title = "Ablation: object placement policy",
       .paper_ref = "Section 1.1 (partitioning criteria are 'a given')",
       .policies = {"UpdatedPointer", "MostGarbage"},
       .rows = Rows::kPointPolicy, .labels = {"Placement", "Policy"},
       .points = Axis<PlacementPolicy>(
           {{"near-parent", PlacementPolicy::kNearParent},
            {"sequential", PlacementPolicy::kSequential},
            {"round-robin", PlacementPolicy::kRoundRobin}},
           [](auto& c, PlacementPolicy p) { c.heap.store.placement = p; }),
       .columns = {kTotalIo, kFraction, kEfficiency, kStorage},
       .reading = R"(
Reading: round-robin placement scatters each subtree across
partitions, so deletions dust garbage everywhere — no partition is
a good victim for *any* policy, and application locality suffers
too. Clustered placement is what gives partition selection its
leverage.)"},
      {.name = "ablation_barrier",
       .title = "Ablation: write-barrier implementation",
       .paper_ref = "Table 1 ('how to maintain inter-partition pointers')",
       .policies = {"UpdatedPointer"}, .labels = {"Barrier"},
       .points = Axis<BarrierMode>(
           {{"exact", BarrierMode::kExact},
            {"store-buffer", BarrierMode::kSequentialStoreBuffer},
            {"card-marking", BarrierMode::kCardMarking}},
           [](auto& c, BarrierMode mode) { c.heap.barrier = mode; }),
       .columns = {kGcIo, kTotalIo, kReclaimed, kFraction},
       .reading = R"(
Reading (UpdatedPointer): reclamation is identical by
construction — every mode presents the collector with a correct
remembered set. Card marking pays to rescan every card that keeps
an inter-partition pointer; the store buffer pays one slot read
per logged store at drain time. The paper's observation stands:
against secondary-memory costs, barrier overhead is secondary.)"},
      {.name = "ablation_disk_time",
       .title = "Ablation: device-time cost model",
       .paper_ref = "Section 4.2 ('more detailed cost models can be built')",
       .rows = Rows::kPointPolicy, .labels = {"Selection Policy"},
       .columns = {kPageIos, kSequential},
       .reports = {PrintDeviceTimeTable},
       .reading = R"(
Reading: random transfers dominate device time (a ~26 ms penalty
vs ~2 ms sequential), so the policy ranking by estimated seconds
tracks — and slightly amplifies — the page-count ranking the paper
reports.)"},
      {.name = "ablation_warm_start",
       .title = "Ablation: cold vs warm start",
       .paper_ref = "Section 5 'Warm-start vs. Cold-start'",
       .policies = {"NoCollection", "MutatedPartition", "Random",
                    "UpdatedPointer", "MostGarbage"},
       .points = Axis<bool>({{"cold start", false}, {"warm start", true}},
                            [](auto& c, bool warm) { c.warm_start = warm; }),
       .reports = {PrintThroughputTable},
       .reading = R"(
Reading: the relative-I/O spread between the best and worst
policies widens under warm starts — the cold build phase is
identical across policies and dilutes every ratio toward 1, just
as the paper argued when justifying its cold-start methodology.)"},
      {.name = "ablation_cycles",
       .title =
           "Ablation: nepotism and distributed cyclic garbage vs connectivity",
       .paper_ref = "Section 6.5 (future work)",
       .caption = "End-of-run garbage anatomy (UpdatedPointer, single seed):\n",
       .reading = R"(
Reading: at every connectivity, roughly half of the unreclaimed
garbage is nepotism-protected — reclaimable only after the
referencing partitions get collected first — while true cross-
partition cyclic garbage is tiny but *permanent*: no ordering of
single-partition collections ever reclaims it (see the
full_collection_interval option / CollectFullDatabase for the
global pass the paper's Section 6.5 calls for). Rising connectivity
also keeps more detached data transitively reachable, shrinking
total garbage while degrading what the collector can find.)",
       .run = RunCycles},
      {.name = "ablation_full_gc",
       .title = "Ablation: periodic whole-database collection",
       .paper_ref = "Section 6.5 (distributed garbage, future work)",
       .policies = {"UpdatedPointer"}, .labels = {"Full GC every"},
       .points = Axis<uint32_t>(
           {{"never", 0}, {"20", 20}, {"10", 10}, {"5", 5}},
           [](auto& c, uint32_t interval) {
             c.workload = c.workload.WithConnectivity(1.167);
             c.heap.full_collection_interval = interval;
           }),
       .columns = {kFullGcs, kFraction, kUnreclaimed, kGcIo, kTotalIo,
                   kStorage},
       .caption = "UpdatedPointer at connectivity 1.167, with a global pass\n"
                  "after every N partition collections:\n\n",
       .reading = R"(
Reading: the global pass eliminates the nepotism/cycle residue
partition-local collection can never reach, pushing reclamation
toward 100% — at a steep collector-I/O price (each pass reads and
rewrites the whole live database). The paper's call for 'graceful
and scalable' treatment of distributed garbage is this trade-off.)"},
      {.name = "oo1_policies",
       .title = "Extension: policies on an OO1-style workload",
       .paper_ref = "beyond the paper (robustness across workload shapes)",
       .seeds = 3, .rows = Rows::kPointPolicy, .labels = {"Selection Policy"},
       .columns = {kTotalIo, kCollections, kReclaimed, kFraction, kEfficiency,
                   kStorage},
       .reading = R"(
Reading: the hints survive the workload change — deleting a part
overwrites the pointers into it, so UpdatedPointer still learns
where garbage forms, while MutatedPartition keeps chasing insert
activity.)",
       .run = RunOo1},
      {.name = "extension_policies",
       .title = "Extension: wider policy design space",
       .paper_ref = "beyond the paper (later-literature baselines)",
       .policies = {"Random", "LeastRecentlyCollected", "UpdatedPointer",
                    "CostBenefit", "MostGarbage"},
       .seeds = 3, .rows = Rows::kPointPolicy, .labels = {"Policy"},
       .columns = {kTotalIo, kFraction, kEfficiency, kStorage},
       .reading = R"(
Reading: least-recently-collected rotation is a surprisingly
strong hint-free baseline when garbage forms everywhere at a
steady rate (it never starves a partition, so every partition is
collected at its accumulated-garbage peak), while Random revisits
some partitions early and others never. The hint-driven policies
still win, and cost-benefit's copying-cost refinement sits within
noise of plain UpdatedPointer here — the overwritten-pointer hint
is the load-bearing ingredient.)"},
      {.name = "ablation_object_size",
       .title = "Ablation: object size",
       .paper_ref = "Section 5 'Object Size'",
       .policies = {"NoCollection", "MostGarbage"}, .labels = {"Object bytes"},
       .points = Axis<std::pair<uint32_t, uint32_t>>(
           {{"50-150 (paper)", {50, 150}},
            {"200-600", {200, 600}},
            {"800-2400", {800, 2400}},
            {"3000-9000", {3000, 9000}}},
           [](auto& c, std::pair<uint32_t, uint32_t> band) {
             c.workload.min_object_size = band.first;
             c.workload.max_object_size = band.second;
             // Keep the tree count comparable: fewer, larger nodes per tree.
             const double scale = (band.first + band.second) / 200.0;
             c.workload.tree_nodes_min = static_cast<uint32_t>(
                 std::max(20.0, c.workload.tree_nodes_min / scale));
             c.workload.tree_nodes_max = static_cast<uint32_t>(
                 std::max(60.0, c.workload.tree_nodes_max / scale));
           }),
       .columns = {{Named(kTotalIo, "NoCollection I/Os"), "NoCollection"},
                   {Named(kTotalIo, "MostGarbage I/Os"), "MostGarbage"},
                   {Named(kTotalIo, "NoColl/MostGarbage"), "NoCollection",
                    "MostGarbage"},
                   {Named(kFraction, "MostGarbage % reclaimed"),
                    "MostGarbage"}},
       .reading = R"(
Reading: as objects approach page size, pages become all-live or
all-garbage on their own, so collection's locality benefit (the
NoCollection/MostGarbage I/O ratio) shrinks toward 1 — the paper's
stated reason for evaluating with ~100-byte objects.)"},
  };
}

}  // namespace
}  // namespace odbgc::bench

int main(int argc, char** argv) {
  using namespace odbgc::bench;
  const std::vector<Sweep> sweeps = Sweeps();
  const std::vector<std::string> wanted(argv + 1, argv + argc);
  for (const std::string& name : wanted) {
    if (std::none_of(sweeps.begin(), sweeps.end(),
                     [&](const Sweep& s) { return name == s.name; })) {
      std::fprintf(stderr, "unknown sweep \"%s\"; known sweeps:\n",
                   name.c_str());
      for (const Sweep& s : sweeps) std::fprintf(stderr, "  %s\n", s.name);
      return 2;
    }
  }
  for (const Sweep& sweep : sweeps) {
    if (!wanted.empty() &&
        std::count(wanted.begin(), wanted.end(), sweep.name) == 0) {
      continue;
    }
    PrintHeader(sweep.title, sweep.paper_ref);
    sweep.run(sweep);
    std::cout << sweep.reading << "\n\n";
  }
  return 0;
}
