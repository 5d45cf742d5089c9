#ifndef ODBGC_BENCH_BENCH_COMMON_H_
#define ODBGC_BENCH_BENCH_COMMON_H_

// Shared plumbing for the table/figure bench binaries. Each binary
// regenerates one table or figure from the paper; this header provides the
// environment knobs so the whole suite can be scaled down for smoke runs:
//
//   ODBGC_SEEDS=<n>   runs per configuration (default: per-bench, usually
//                     the paper's 10 for tables)
//   ODBGC_FAST=1      quarter-size workloads, 2 seeds — finishes in
//                     seconds, shapes only roughly preserved

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/config.h"
#include "sim/runner.h"

namespace odbgc::bench {

inline int SeedsOrDefault(int fallback) {
  if (const char* env = std::getenv("ODBGC_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  if (std::getenv("ODBGC_FAST") != nullptr) return 2;
  return fallback;
}

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

/// The spec every bench starts from: BaseConfig() under ODBGC_SEEDS (or
/// `fallback_seeds`) seeds. Benches chain the ExperimentSpec builder for
/// their own axis:
///
///   auto spec = bench::BaseSpec(10).WithPolicies({"UpdatedPointer"});
inline ExperimentSpec BaseSpec(int fallback_seeds) {
  return ExperimentSpec::Base(BaseConfig())
      .WithSeeds(SeedsOrDefault(fallback_seeds));
}

/// Manifest directory for this bench, from ODBGC_MANIFEST_DIR; empty (no
/// manifests) when unset. Benches pass it through WithManifestDir so any
/// table run can feed odbgc-report.
inline std::string ManifestDirOrEmpty() {
  const char* env = std::getenv("ODBGC_MANIFEST_DIR");
  return env == nullptr ? std::string() : std::string(env);
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
