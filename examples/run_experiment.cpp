// A small command-line driver over the experiment runner: pick policies,
// seeds, database size, connectivity, trigger and partition geometry, and
// get the three paper-style tables (optionally as CSV).
//
// Examples:
//   ./build/examples/run_experiment --seeds=5
//   ./build/examples/run_experiment --policies=UpdatedPointer,MostGarbage
//       --alloc-mb=22 --partition-pages=64 --trigger=300 --csv  (one line)
//   ./build/examples/run_experiment --connectivity=1.167 --seeds=3

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/config.h"
#include "sim/report.h"
#include "sim/runner.h"
#include "storage/device_registry.h"
#include "util/parse_flag.h"
#include "util/table_printer.h"

namespace {

using namespace odbgc;

void Usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --policies=A,B,...     any registered policy names (default: the\n"
      "                         paper's six; see --list-policies)\n"
      "  --list-policies        print the registry and exit\n"
      "  --seeds=N              runs per policy           (default 3)\n"
      "  --first-seed=N         first seed                (default 1)\n"
      "  --alloc-mb=N           total allocation volume   (default 11)\n"
      "  --connectivity=C       pointers per object       (default 1.083)\n"
      "  --partition-pages=N    pages per partition       (default 48)\n"
      "  --buffer-pages=N       buffer size               (default = partition)\n"
      "  --trigger=N            overwrites per collection (default 150)\n"
      "  --manifest-dir=DIR     write a run manifest per (policy, seed)\n"
      "                         for odbgc-report\n"
      "  --device=SPEC          storage backend: disk, ssd, or\n"
      "                         file:<path> (per-run files get a\n"
      "                         -<policy>-s<seed> suffix; see\n"
      "                         --list-devices)\n"
      "  --list-devices         print the device registry and exit\n"
      "  --parallel-grid[=N]    run the (policy, seed) grid on N\n"
      "                         threads (default: hardware\n"
      "                         concurrency); results are the same\n"
      "                         as a serial grid's\n"
      "  --csv                  CSV instead of aligned tables\n",
      prog);
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentSpec spec;
  spec.base = PaperBaseConfig();
  spec.num_seeds = 3;
  HeapOptions& heap = spec.base.heap;
  bool csv = false;
  bool buffer_set = false;
  bool ok = true;         // Cleared by a numeric value that does not parse.
  uint32_t alloc_mb = 0;  // 32 bits, so the shift to bytes cannot overflow.
  double connectivity = 0;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--policies", &value)) {
      auto policies = ParsePolicyList(value);
      if (!policies.ok()) {
        std::fputs(policies.status().message().c_str(), stderr);
        return 1;
      }
      spec.policies = std::move(policies).value();
    } else if (std::strcmp(argv[i], "--list-policies") == 0) {
      for (const std::string& known : RegisteredPolicyNames()) {
        std::printf("%s\n", known.c_str());
      }
      return 0;
    } else if (ParseFlag(argv[i], "--manifest-dir", &value)) {
      spec.manifest_dir = value;
    } else if (ParseFlag(argv[i], "--device", &value)) {
      if (!IsDeviceRegistered(DeviceSpecName(value))) {
        std::fprintf(stderr, "unknown device \"%s\"; registered:\n",
                     DeviceSpecName(value).c_str());
        for (const std::string& known : RegisteredDeviceNames()) {
          std::fprintf(stderr, "  %s\n", known.c_str());
        }
        return 1;
      }
      heap.device_spec = value;
    } else if (std::strcmp(argv[i], "--list-devices") == 0) {
      for (const std::string& known : RegisteredDeviceNames()) {
        std::printf("%s\n", known.c_str());
      }
      return 0;
    } else if (
        ParseNumberFlag(argv[i], "--seeds", &spec.num_seeds, &ok) ||
        ParseNumberFlag(argv[i], "--first-seed", &spec.first_seed, &ok) ||
        ParseNumberFlag(argv[i], "--trigger", &heap.overwrite_trigger, &ok) ||
        ParseNumberFlag(argv[i], "--parallel-grid", &spec.threads, &ok)) {
      // Parsed in the condition.
    } else if (ParseNumberFlag(argv[i], "--alloc-mb", &alloc_mb, &ok)) {
      spec.base.workload = spec.base.workload.WithTotalAllocation(
          uint64_t{alloc_mb} << 20);
    } else if (ParseNumberFlag(argv[i], "--connectivity", &connectivity,
                               &ok)) {
      spec.base.workload = spec.base.workload.WithConnectivity(connectivity);
    } else if (ParseNumberFlag(argv[i], "--partition-pages",
                               &heap.store.pages_per_partition, &ok)) {
      if (!buffer_set) heap.buffer_pages = heap.store.pages_per_partition;
    } else if (ParseNumberFlag(argv[i], "--buffer-pages", &heap.buffer_pages,
                               &ok)) {
      buffer_set = true;
    } else if (std::strcmp(argv[i], "--parallel-grid") == 0) {
      spec.threads = 0;  // Hardware concurrency.
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else {
      Usage(argv[0]);
      return 1;
    }
  }
  if (!ok) return 1;
  if (spec.num_seeds <= 0 || spec.policies.empty()) {
    Usage(argv[0]);
    return 1;
  }

  std::fprintf(stderr, "running %zu policies x %d seeds...\n",
               spec.policies.size(), spec.num_seeds);
  auto experiment = RunExperiment(spec);
  if (!experiment.ok()) {
    std::fprintf(stderr, "experiment failed: %s\n",
                 experiment.status().ToString().c_str());
    return 1;
  }
  const auto summaries = Summarize(*experiment);

  if (csv) {
    TablePrinter table({"policy", "app_io", "gc_io", "total_io",
                        "rel_total_io", "max_storage_kb", "reclaimed_kb",
                        "fraction_pct", "efficiency_kb_per_io"});
    for (const PolicySummary& s : summaries) {
      table.AddRow({s.name, FormatCount(s.app_io.mean()),
                    FormatCount(s.gc_io.mean()),
                    FormatCount(s.total_io.mean()),
                    FormatDouble(s.relative_total_io.mean(), 4),
                    FormatCount(s.max_storage_kb.mean()),
                    FormatCount(s.reclaimed_kb.mean()),
                    FormatDouble(s.fraction_reclaimed_pct.mean(), 2),
                    FormatDouble(s.efficiency_kb_per_io.mean(), 3)});
    }
    table.PrintCsv(std::cout);
  } else {
    PrintThroughputTable(summaries, std::cout);
    std::cout << '\n';
    PrintStorageTable(summaries, std::cout);
    std::cout << '\n';
    PrintEfficiencyTable(summaries, std::cout);
    std::cout << '\n';
    PrintDeviceTimeTable(summaries, std::cout);
  }
  return 0;
}
