#ifndef ODBGC_BENCH_BENCH_COMMON_H_
#define ODBGC_BENCH_BENCH_COMMON_H_

// Shared plumbing for the bench binaries: the environment knob that scales
// every bench down for smoke runs,
//
//   ODBGC_FAST=1      quarter-size workloads — finishes in seconds, shapes
//                     only roughly preserved
//
// and the banner, spread and failure helpers they share.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <vector>

#include "sim/config.h"
#include "sim/runner.h"

namespace odbgc::bench {

inline bool FastMode() { return std::getenv("ODBGC_FAST") != nullptr; }

/// The base configuration for this bench run: the paper's (Tables 2-4)
/// unless ODBGC_FAST scales it down 4x.
inline SimulationConfig BaseConfig() {
  SimulationConfig config = PaperBaseConfig();
  if (FastMode()) {
    config.workload = config.workload.WithTotalAllocation(
        config.workload.total_alloc_bytes / 4);
    config.heap.store.pages_per_partition = 24;
    config.heap.buffer_pages = 24;
  }
  return config;
}

inline void PrintHeader(const char* experiment, const char* paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("  (Cook, Wolf & Zorn, \"Partition Selection Policies in Object\n");
  std::printf("   Database Garbage Collection\", CU-CS-653-93 / SIGMOD 1994)\n");
  std::printf("================================================================\n\n");
}

/// Median with min and max of repeated measurements — how the scaling
/// benches report every measured figure.
struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;
};

/// The spread of `values` (at least one).
inline Spread SpreadOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  Spread s;
  s.min = values.front();
  s.max = values.back();
  const size_t mid = values.size() / 2;
  s.median = values.size() % 2 == 1
                 ? values[mid]
                 : (values[mid - 1] + values[mid]) / 2.0;
  return s;
}

/// Writes `"name": {"median": .., "min": .., "max": ..}`.
inline void WriteSpread(std::ostream& json, const char* name,
                        const Spread& s) {
  json << "\"" << name << "\": {\"median\": " << s.median
       << ", \"min\": " << s.min << ", \"max\": " << s.max << "}";
}

inline void Fail(const Status& status, const char* what) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

}  // namespace odbgc::bench

#endif  // ODBGC_BENCH_BENCH_COMMON_H_
