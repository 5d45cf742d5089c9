#include "sim/report.h"

#include <algorithm>

#include "util/table_printer.h"

namespace odbgc {

namespace {

// Cells of a relative column. A stat with no samples had no MostGarbage
// run to divide by; it prints "-", like an unmeasured device-time cell,
// rather than a ratio of 0.
std::string RelativeMean(const RunningStat& stat, int precision) {
  return stat.count() == 0 ? "-" : FormatDouble(stat.mean(), precision);
}

std::string RelativeStddev(const RunningStat& stat, int precision) {
  return stat.count() == 0 ? "-" : FormatDouble(stat.stddev(), precision);
}

}  // namespace

std::vector<PolicySummary> Summarize(const Experiment& experiment) {
  const PolicyRuns* baseline =
      experiment.Find(PolicyName(PolicyKind::kMostGarbage));

  std::vector<PolicySummary> summaries;
  for (const PolicyRuns& set : experiment.sets) {
    PolicySummary s;
    s.name = set.name;
    for (size_t i = 0; i < set.runs.size(); ++i) {
      const SimulationResult& run = set.runs[i];
      s.app_io.Add(static_cast<double>(run.app_io));
      s.gc_io.Add(static_cast<double>(run.gc_io));
      s.total_io.Add(static_cast<double>(run.total_io()));
      s.max_storage_kb.Add(static_cast<double>(run.max_storage_bytes) /
                           1024.0);
      s.max_partitions.Add(static_cast<double>(run.max_partitions));
      s.reclaimed_kb.Add(static_cast<double>(run.garbage_reclaimed_bytes) /
                         1024.0);
      s.fraction_reclaimed_pct.Add(run.FractionReclaimedPct());
      s.efficiency_kb_per_io.Add(run.EfficiencyKbPerIo());
      s.collections.Add(static_cast<double>(run.collections));
      s.actual_garbage_kb.Add(static_cast<double>(run.actual_garbage_bytes()) /
                              1024.0);
      s.device_time_ms.Add(run.estimated_device_time_ms);
      if (run.measured.measured) {
        s.measured_io_ms.Add(run.measured.wall_ms);
        s.any_measured = true;
      }

      if (baseline != nullptr && i < baseline->runs.size()) {
        const SimulationResult& ref = baseline->runs[i];
        if (ref.total_io() > 0) {
          s.relative_total_io.Add(static_cast<double>(run.total_io()) /
                                  static_cast<double>(ref.total_io()));
        }
        if (ref.max_storage_bytes > 0) {
          s.relative_max_storage.Add(
              static_cast<double>(run.max_storage_bytes) /
              static_cast<double>(ref.max_storage_bytes));
        }
        if (ref.EfficiencyKbPerIo() > 0) {
          s.relative_efficiency.Add(run.EfficiencyKbPerIo() /
                                    ref.EfficiencyKbPerIo());
        }
        if (ref.estimated_device_time_ms > 0) {
          s.relative_device_time.Add(run.estimated_device_time_ms /
                                     ref.estimated_device_time_ms);
        }
      }
    }
    summaries.push_back(std::move(s));
  }
  return summaries;
}

void PrintThroughputTable(const std::vector<PolicySummary>& summaries,
                          std::ostream& os) {
  os << "Throughput as Number of Page I/O Operations"
        " (Relative is MostGarbage = 1)\n";
  TablePrinter t({"Selection Policy", "App I/Os Mean", "Std Dev",
                  "Collector I/Os Mean", "Std Dev", "Total I/Os Mean",
                  "Relative Mean", "Std Dev"});
  for (const PolicySummary& s : summaries) {
    t.AddRow({s.name, FormatCount(s.app_io.mean()),
              FormatCount(s.app_io.stddev()), FormatCount(s.gc_io.mean()),
              FormatCount(s.gc_io.stddev()), FormatCount(s.total_io.mean()),
              RelativeMean(s.relative_total_io, 3),
              RelativeStddev(s.relative_total_io, 3)});
  }
  t.Print(os);
}

void PrintStorageTable(const std::vector<PolicySummary>& summaries,
                       std::ostream& os) {
  os << "Maximum Storage Space Usage (Relative is MostGarbage = 1)\n";
  TablePrinter t({"Selection Policy", "Max Storage (KB) Mean", "Std Dev",
                  "Relative Mean", "# Partitions Mean", "Std Dev"});
  for (const PolicySummary& s : summaries) {
    t.AddRow({s.name, FormatCount(s.max_storage_kb.mean()),
              FormatCount(s.max_storage_kb.stddev()),
              RelativeMean(s.relative_max_storage, 3),
              FormatDouble(s.max_partitions.mean(), 1),
              FormatDouble(s.max_partitions.stddev(), 2)});
  }
  t.Print(os);
}

void PrintEfficiencyTable(const std::vector<PolicySummary>& summaries,
                          std::ostream& os) {
  os << "Collector Effectiveness and Efficiency"
        " (Relative is MostGarbage = 1)\n";
  TablePrinter t({"Selection Policy", "Garbage Reclaimed (KB) Mean",
                  "Std Dev", "Fraction of Garbage (%) Mean", "Std Dev",
                  "Efficiency (KB per I/O)", "Relative Efficiency"});
  for (const PolicySummary& s : summaries) {
    t.AddRow({s.name, FormatCount(s.reclaimed_kb.mean()),
              FormatCount(s.reclaimed_kb.stddev()),
              FormatDouble(s.fraction_reclaimed_pct.mean(), 2),
              FormatDouble(s.fraction_reclaimed_pct.stddev(), 2),
              FormatDouble(s.efficiency_kb_per_io.mean(), 2),
              RelativeMean(s.relative_efficiency, 2)});
  }
  if (!summaries.empty()) {
    t.AddSeparator();
    // The "Actual Garbage" row is a property of the traces, identical for
    // every policy; report it from the first summary.
    const PolicySummary& any = summaries.front();
    t.AddRow({"Actual Garbage", FormatCount(any.actual_garbage_kb.mean()),
              FormatCount(any.actual_garbage_kb.stddev()), "", "", "", ""});
  }
  t.Print(os);
}

void PrintDeviceTimeTable(const std::vector<PolicySummary>& summaries,
                          std::ostream& os) {
  // When any run executed on a real-I/O backend, its wall-clock I/O time
  // is shown beside the model's estimate — the estimate ranks policies,
  // the measurement grounds the model.
  bool any_measured = false;
  for (const PolicySummary& s : summaries) any_measured |= s.any_measured;

  os << "Estimated Device Time (Relative is MostGarbage = 1)\n";
  if (!any_measured) {
    TablePrinter t({"Selection Policy", "Device Time (ms) Mean", "Std Dev",
                    "Relative Mean", "Std Dev"});
    for (const PolicySummary& s : summaries) {
      t.AddRow({s.name, FormatCount(s.device_time_ms.mean()),
                FormatCount(s.device_time_ms.stddev()),
                RelativeMean(s.relative_device_time, 3),
                RelativeStddev(s.relative_device_time, 3)});
    }
    t.Print(os);
    return;
  }
  TablePrinter t({"Selection Policy", "Estimated (ms) Mean", "Std Dev",
                  "Measured (ms) Mean", "Std Dev", "Relative Mean",
                  "Std Dev"});
  for (const PolicySummary& s : summaries) {
    t.AddRow({s.name, FormatCount(s.device_time_ms.mean()),
              FormatCount(s.device_time_ms.stddev()),
              s.any_measured ? FormatCount(s.measured_io_ms.mean()) : "-",
              s.any_measured ? FormatCount(s.measured_io_ms.stddev()) : "-",
              RelativeMean(s.relative_device_time, 3),
              RelativeStddev(s.relative_device_time, 3)});
  }
  t.Print(os);
}

}  // namespace odbgc
