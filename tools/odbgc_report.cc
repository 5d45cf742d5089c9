// odbgc-report: the command-line consumer of run manifests (see
// observe/manifest.h). Five subcommands:
//
//   tables <dir>
//       Aggregates every manifest in <dir> into the paper's summary
//       tables (throughput, storage, efficiency) — the same tables the
//       bench binaries print, but computed offline from the canonical
//       per-run records, so any two runs of any policies can be tabled
//       together after the fact.
//
//   tenants <dir>
//       Per-tenant table from a multi-tenant service run's manifest
//       directory (HeapService with a manifest_dir — files are named
//       <tenant>-<policy>-s<seed>.json). One row per tenant plus a
//       service-total row; tenants may run different policies, so rows
//       are not averaged.
//
//   diff <dirA> <dirB> [--tolerance=PCT]
//       Matches manifests by (policy, seed) and compares run metrics.
//       Two directories produced from identical-seed runs of the same
//       configuration must show zero regressions (and, because manifests
//       are canonical, byte-identical documents). Exits 1 on regression
//       or coverage loss, 2 on usage/digest errors.
//
//   digests <dir>
//       One line per manifest anywhere under <dir>: its path relative to
//       <dir> and its result digest (ResultDigest, 8 hex digits), sorted
//       by path. Two manifest trees, such as two runs of every sweep,
//       compare with `diff` of their listings. Exits 2 on an unreadable
//       directory or an invalid manifest.
//
//   check <dir> --baseline=<file> [--tolerance=PCT] [--write]
//       Regression gate for CI: compares per-policy mean metrics against
//       a checked-in baseline, generalizing bench/hotpath's --check from
//       one throughput number to the full metric set. --write
//       (re)generates the baseline from <dir>. Exits 1 on regression.
//
// Tolerances are percentages (diff defaults to 0, check to 10). Metrics
// where lower is better (I/O, storage) fail above baseline * (1 + t);
// metrics where higher is better (reclamation, efficiency) fail below
// baseline * (1 - t).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "observe/json.h"
#include "observe/manifest.h"
#include "sim/report.h"
#include "sim/runner.h"
#include "util/parse_flag.h"
#include "util/table_printer.h"

namespace odbgc {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: odbgc-report <command> ...\n"
      "  tables <dir>                          paper tables from manifests\n"
      "  tenants <dir>                         per-tenant table from a\n"
      "                                        service run's manifests\n"
      "  diff <dirA> <dirB> [--tolerance=PCT]  compare two manifest sets\n"
      "  digests <dir>                         result digest of every\n"
      "                                        manifest under <dir>\n"
      "  check <dir> --baseline=<file> [--tolerance=PCT] [--write]\n"
      "                                        gate against a baseline\n");
  return 2;
}

struct LoadedManifest {
  std::string file;
  Json manifest;
};

/// Loads and validates every *.json in `dir`, in filename order so output
/// is stable regardless of directory enumeration order.
Result<std::vector<LoadedManifest>> LoadManifestDir(const std::string& dir) {
  std::error_code ec;
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      paths.push_back(entry.path());
    }
  }
  if (ec) return Status::IoError("cannot read directory " + dir);
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) {
    return Status::InvalidArgument("no manifests (*.json) in " + dir);
  }

  std::vector<LoadedManifest> loaded;
  for (const auto& path : paths) {
    auto manifest = LoadManifestFile(path.string());
    if (!manifest.ok()) return manifest.status();
    loaded.push_back({path.filename().string(), std::move(*manifest)});
  }
  return loaded;
}

double Num(const Json& object, const char* key) {
  const Json* field = object.Get(key);
  return field == nullptr ? 0.0 : field->double_value();
}

uint64_t UNum(const Json& object, const char* key) {
  const Json* field = object.Get(key);
  return field == nullptr ? 0 : field->uint_value();
}

/// Rehydrates the fields the summary tables consume. (Time series and the
/// metrics registry stay in the Json document; Summarize never reads
/// them.)
SimulationResult ResultFromManifest(const Json& manifest) {
  const Json& r = *manifest.Get("result");
  SimulationResult result;
  result.policy_name = r.Get("policy")->string_value();
  if (auto kind = ParsePolicyName(r.Get("policy_kind")->string_value());
      kind.ok()) {
    result.policy = *kind;
  }
  result.seed = UNum(r, "seed");
  result.app_events = UNum(r, "app_events");
  result.app_io = UNum(r, "app_io");
  result.gc_io = UNum(r, "gc_io");
  result.max_storage_bytes = UNum(r, "max_storage_bytes");
  result.max_partitions = UNum(r, "max_partitions");
  result.final_partitions = UNum(r, "final_partitions");
  result.collections = UNum(r, "collections");
  result.garbage_reclaimed_bytes = UNum(r, "garbage_reclaimed_bytes");
  result.live_bytes_copied = UNum(r, "live_bytes_copied");
  result.unreclaimed_garbage_bytes = UNum(r, "unreclaimed_garbage_bytes");
  result.final_live_bytes = UNum(r, "final_live_bytes");
  result.remset_entries = UNum(r, "remset_entries");
  result.bytes_allocated = UNum(r, "bytes_allocated");
  result.pointer_overwrites = UNum(r, "pointer_overwrites");
  result.estimated_device_time_ms = Num(r, "estimated_device_time_ms");
  // Optional top-level `measured` section (real-I/O backends only).
  if (const Json* m = manifest.Get("measured");
      m != nullptr && m->is_object()) {
    result.measured.measured = true;
    result.measured.reads = UNum(*m, "reads");
    result.measured.writes = UNum(*m, "writes");
    result.measured.fsyncs = UNum(*m, "fsyncs");
    result.measured.batches = UNum(*m, "batches");
    result.measured.readahead_hits = UNum(*m, "readahead_hits");
    result.measured.readahead_misses = UNum(*m, "readahead_misses");
    result.measured.prefetched_pages = UNum(*m, "prefetched_pages");
    result.measured.wall_ms = Num(*m, "wall_ms");
  }
  return result;
}

/// Groups per-run manifests into an Experiment: paper policies in paper
/// order first, anything else in order of first appearance; runs sorted
/// by seed.
Experiment GroupByPolicy(const std::vector<LoadedManifest>& manifests) {
  Experiment experiment;
  auto set_for = [&experiment](const std::string& name) -> PolicyRuns& {
    for (PolicyRuns& set : experiment.sets) {
      if (set.name == name) return set;
    }
    experiment.sets.emplace_back();
    experiment.sets.back().name = name;
    return experiment.sets.back();
  };
  for (const std::string& name : PaperPolicyNames()) {
    for (const LoadedManifest& loaded : manifests) {
      if (loaded.manifest.Get("policy")->string_value() == name) {
        set_for(name);
        break;
      }
    }
  }
  for (const LoadedManifest& loaded : manifests) {
    PolicyRuns& set = set_for(loaded.manifest.Get("policy")->string_value());
    set.runs.push_back(ResultFromManifest(loaded.manifest));
  }
  for (PolicyRuns& set : experiment.sets) {
    std::sort(set.runs.begin(), set.runs.end(),
              [](const SimulationResult& a, const SimulationResult& b) {
                return a.seed < b.seed;
              });
    set.policy = set.runs.front().policy;
  }
  return experiment;
}

/// The concurrency axis of one manifest: (mutator_threads, trace_shards),
/// defaulting to serial for pre-axis manifests.
std::pair<uint64_t, uint64_t> ThreadsAxis(const Json& manifest) {
  const Json* config = manifest.Get("config");
  if (config == nullptr || !config->is_object()) return {1, 0};
  const uint64_t threads = UNum(*config, "mutator_threads");
  return {threads == 0 ? 1 : threads, UNum(*config, "trace_shards")};
}

/// Distinct concurrency axes across a manifest set, in first-seen order.
std::vector<std::pair<uint64_t, uint64_t>> ThreadsAxes(
    const std::vector<LoadedManifest>& manifests) {
  std::vector<std::pair<uint64_t, uint64_t>> axes;
  for (const LoadedManifest& loaded : manifests) {
    const auto axis = ThreadsAxis(loaded.manifest);
    if (std::find(axes.begin(), axes.end(), axis) == axes.end()) {
      axes.push_back(axis);
    }
  }
  return axes;
}

/// Distinct config digests across a manifest set. More than one means the
/// runs are not comparable as a single experiment.
std::vector<uint64_t> Digests(const std::vector<LoadedManifest>& manifests) {
  std::vector<uint64_t> digests;
  for (const LoadedManifest& loaded : manifests) {
    const uint64_t digest = UNum(loaded.manifest, "config_digest");
    if (std::find(digests.begin(), digests.end(), digest) == digests.end()) {
      digests.push_back(digest);
    }
  }
  return digests;
}

/// Scaling table: the threads axis against end-to-end throughput, from
/// manifests that carry a "timing" section (runs recorded under
/// ExperimentSpec::record_timing — e.g. `run_experiment --parallel-grid`).
/// Only manifests sharing one config digest are comparable as a scaling
/// study (digest-equal runs are the same experiment, so the only thing
/// that varies along the axis is wall time); the table uses the first
/// timing-carrying digest and notes how many runs it excluded. events/sec
/// sums each axis's events over its summed wall, speedup is against the
/// smallest axis present, and parallel efficiency divides that speedup by
/// the thread ratio. Prints nothing when no manifest carries timing.
void PrintScalingTable(const std::vector<LoadedManifest>& manifests,
                       std::ostream& os) {
  struct AxisAgg {
    uint64_t threads = 1;
    uint64_t runs = 0;
    uint64_t events = 0;
    double wall_seconds = 0;
  };
  std::vector<AxisAgg> axes;
  bool have_digest = false;
  uint64_t scaling_digest = 0;
  uint64_t excluded = 0;
  for (const LoadedManifest& loaded : manifests) {
    const Json* timing = loaded.manifest.Get("timing");
    if (timing == nullptr || !timing->is_object()) continue;
    const uint64_t digest = UNum(loaded.manifest, "config_digest");
    if (!have_digest) {
      have_digest = true;
      scaling_digest = digest;
    } else if (digest != scaling_digest) {
      ++excluded;
      continue;
    }
    const uint64_t threads = ThreadsAxis(loaded.manifest).first;
    AxisAgg* agg = nullptr;
    for (AxisAgg& existing : axes) {
      if (existing.threads == threads) agg = &existing;
    }
    if (agg == nullptr) {
      axes.emplace_back();
      agg = &axes.back();
      agg->threads = threads;
    }
    ++agg->runs;
    agg->events += UNum(*loaded.manifest.Get("result"), "app_events");
    agg->wall_seconds += Num(*timing, "wall_seconds");
  }
  if (axes.empty()) return;
  std::sort(axes.begin(), axes.end(),
            [](const AxisAgg& a, const AxisAgg& b) {
              return a.threads < b.threads;
            });

  const AxisAgg& base = axes.front();
  const double base_rate =
      base.wall_seconds > 0
          ? static_cast<double>(base.events) / base.wall_seconds
          : 0;
  os << "Scaling (from manifest timing sections; baseline "
     << base.threads << " thread" << (base.threads == 1 ? "" : "s")
     << "):\n";
  if (excluded > 0) {
    os << "  note: " << excluded
       << " timed run(s) with a different config digest excluded\n";
  }
  TablePrinter table({"threads", "runs", "events", "wall_s", "events_per_s",
                      "speedup", "efficiency"});
  for (const AxisAgg& axis : axes) {
    const double rate =
        axis.wall_seconds > 0
            ? static_cast<double>(axis.events) / axis.wall_seconds
            : 0;
    const double speedup = base_rate > 0 ? rate / base_rate : 0;
    const double thread_ratio =
        static_cast<double>(axis.threads) / static_cast<double>(base.threads);
    table.AddRow({std::to_string(axis.threads), std::to_string(axis.runs),
                  FormatCount(axis.events),
                  FormatDouble(axis.wall_seconds, 3), FormatCount(rate),
                  FormatDouble(speedup, 2),
                  FormatDouble(thread_ratio > 0 ? speedup / thread_ratio : 0,
                               2)});
  }
  table.Print(os);
}

// ---------------------------------------------------------------------------
// Comparable metrics: name, direction, and how to read one from a
// manifest. One table drives diff, check, and baseline writing.

enum class Direction {
  kLowerIsBetter,   // costs: I/O, storage, leftover garbage
  kHigherIsBetter,  // benefits: reclamation, efficiency
};

struct MetricDef {
  const char* name;
  Direction direction;
  double (*read)(const SimulationResult& result);
  /// Whether the metric belongs in the check/baseline regression gate.
  /// Wall-clock measurements (measured_io_ms) are direction-aware in
  /// tables and diff output but never gate: they vary run to run on the
  /// same code, so a checked-in baseline of them would only flake.
  bool in_baseline = true;
};

constexpr MetricDef kMetrics[] = {
    {"total_io", Direction::kLowerIsBetter,
     [](const SimulationResult& r) { return static_cast<double>(r.total_io()); }},
    {"app_io", Direction::kLowerIsBetter,
     [](const SimulationResult& r) { return static_cast<double>(r.app_io); }},
    {"gc_io", Direction::kLowerIsBetter,
     [](const SimulationResult& r) { return static_cast<double>(r.gc_io); }},
    {"max_storage_kb", Direction::kLowerIsBetter,
     [](const SimulationResult& r) {
       return static_cast<double>(r.max_storage_bytes) / 1024.0;
     }},
    {"unreclaimed_garbage_kb", Direction::kLowerIsBetter,
     [](const SimulationResult& r) {
       return static_cast<double>(r.unreclaimed_garbage_bytes) / 1024.0;
     }},
    {"estimated_device_time_ms", Direction::kLowerIsBetter,
     [](const SimulationResult& r) { return r.estimated_device_time_ms; }},
    {"measured_io_ms", Direction::kLowerIsBetter,
     [](const SimulationResult& r) {
       return r.measured.measured ? r.measured.wall_ms : 0.0;
     },
     /*in_baseline=*/false},
    {"fraction_reclaimed_pct", Direction::kHigherIsBetter,
     [](const SimulationResult& r) { return r.FractionReclaimedPct(); }},
    {"efficiency_kb_per_io", Direction::kHigherIsBetter,
     [](const SimulationResult& r) { return r.EfficiencyKbPerIo(); }},
};

const MetricDef* FindMetric(const std::string& name) {
  for (const MetricDef& metric : kMetrics) {
    if (name == metric.name) return &metric;
  }
  return nullptr;
}

/// True if `candidate` is worse than `reference` by more than
/// `tolerance_pct` percent, in the metric's bad direction.
bool IsRegression(const MetricDef& metric, double reference, double candidate,
                  double tolerance_pct) {
  const double slack = std::abs(reference) * tolerance_pct / 100.0;
  if (metric.direction == Direction::kLowerIsBetter) {
    return candidate > reference + slack;
  }
  return candidate < reference - slack;
}

// ---------------------------------------------------------------------------
// tables

int RunDigests(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<std::string> paths;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file() && it->path().extension() == ".json") {
      paths.push_back(fs::relative(it->path(), dir).generic_string());
    }
  }
  if (ec) {
    std::fprintf(stderr, "cannot read directory %s\n", dir.c_str());
    return 2;
  }
  if (paths.empty()) {
    std::fprintf(stderr, "no manifests (*.json) under %s\n", dir.c_str());
    return 2;
  }
  std::sort(paths.begin(), paths.end());
  for (const std::string& path : paths) {
    auto manifest = LoadManifestFile((fs::path(dir) / path).string());
    if (!manifest.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   manifest.status().ToString().c_str());
      return 2;
    }
    std::printf("%s %08x\n", path.c_str(), ResultDigest(*manifest));
  }
  return 0;
}

int RunTables(const std::string& dir) {
  auto manifests = LoadManifestDir(dir);
  if (!manifests.ok()) {
    std::fprintf(stderr, "%s\n", manifests.status().ToString().c_str());
    return 2;
  }
  const auto digests = Digests(*manifests);
  if (digests.size() > 1) {
    std::fprintf(stderr,
                 "warning: %zu distinct config digests in %s — the runs "
                 "were not produced by one experiment\n",
                 digests.size(), dir.c_str());
  }

  const Experiment experiment = GroupByPolicy(*manifests);
  size_t runs = 0;
  for (const PolicyRuns& set : experiment.sets) runs += set.runs.size();
  std::printf("%zu manifests, %zu policies (config digest %llu)\n",
              runs, experiment.sets.size(),
              static_cast<unsigned long long>(digests.front()));
  // The concurrency axis is digest-excluded (thread-count-invariant
  // results), so mixed-axis sets are legitimate — but worth surfacing.
  const auto axes = ThreadsAxes(*manifests);
  if (axes.size() > 1 || axes.front().first > 1) {
    std::printf("threads axis:");
    for (const auto& [threads, shards] : axes) {
      std::printf(" %llux%llu", static_cast<unsigned long long>(threads),
                  static_cast<unsigned long long>(
                      shards == 0 ? threads : shards));
    }
    std::printf(" (mutator_threads x trace_shards)\n");
  }
  std::printf("\n");

  const auto summaries = Summarize(experiment);
  PrintThroughputTable(summaries, std::cout);
  std::cout << '\n';
  PrintStorageTable(summaries, std::cout);
  std::cout << '\n';
  PrintEfficiencyTable(summaries, std::cout);
  std::cout << '\n';
  // Shows estimated model time; when the manifests carry a `measured`
  // section (file backend), measured wall-clock I/O appears beside it.
  PrintDeviceTimeTable(summaries, std::cout);
  // Threads axis -> throughput, when any manifest recorded wall time.
  std::cout << '\n';
  PrintScalingTable(*manifests, std::cout);
  return 0;
}

// ---------------------------------------------------------------------------
// tenants

/// The tenant name a service run encoded in a manifest's filename:
/// <tenant>-<policy>-s<seed>.json (see HeapService::WriteManifests). Falls
/// back to the whole stem when the suffix doesn't match — the row is
/// still printable, just unlabelled.
std::string TenantFromFilename(const std::string& file,
                               const SimulationResult& result) {
  const std::string suffix =
      "-" + result.policy_name + "-s" + std::to_string(result.seed) + ".json";
  if (file.size() > suffix.size() &&
      file.compare(file.size() - suffix.size(), suffix.size(), suffix) == 0) {
    return file.substr(0, file.size() - suffix.size());
  }
  const size_t dot = file.rfind(".json");
  return dot == std::string::npos ? file : file.substr(0, dot);
}

int RunTenants(const std::string& dir) {
  auto manifests = LoadManifestDir(dir);
  if (!manifests.ok()) {
    std::fprintf(stderr, "%s\n", manifests.status().ToString().c_str());
    return 2;
  }

  TablePrinter table({"tenant", "policy", "seed", "events", "app_io", "gc_io",
                      "total_io", "collections", "reclaimed_kb",
                      "max_storage_kb", "efficiency", "peak_frames",
                      "stalls"});
  SimulationResult total;
  uint64_t total_stalls = 0;
  bool any_service = false;
  for (const LoadedManifest& loaded : *manifests) {
    const SimulationResult r = ResultFromManifest(loaded.manifest);
    // Service manifests carry the per-tenant occupancy story in the
    // optional `service` section; standalone manifests print "-".
    std::string peak_frames = "-";
    std::string stalls = "-";
    if (const Json* service = loaded.manifest.Get("service")) {
      const uint64_t peak =
          service->Get("peak_resident_frames")->uint_value();
      const uint64_t stalled = service->Get("admission_stalls")->uint_value();
      peak_frames = FormatCount(peak);
      stalls = FormatCount(stalled);
      total_stalls += stalled;
      any_service = true;
    }
    table.AddRow({TenantFromFilename(loaded.file, r), r.policy_name,
                  std::to_string(r.seed), FormatCount(r.app_events),
                  FormatCount(r.app_io), FormatCount(r.gc_io),
                  FormatCount(r.total_io()), FormatCount(r.collections),
                  FormatCount(r.garbage_reclaimed_bytes / 1024),
                  FormatCount(r.max_storage_bytes / 1024),
                  FormatDouble(r.EfficiencyKbPerIo(), 3), peak_frames,
                  stalls});
    total.app_events += r.app_events;
    total.app_io += r.app_io;
    total.gc_io += r.gc_io;
    total.collections += r.collections;
    total.garbage_reclaimed_bytes += r.garbage_reclaimed_bytes;
    total.max_storage_bytes += r.max_storage_bytes;
  }
  // Per-tenant peaks are concurrent maxima, not addends — the service
  // total prints only the summable stall count.
  table.AddRow({"(service)", "-", "-", FormatCount(total.app_events),
                FormatCount(total.app_io), FormatCount(total.gc_io),
                FormatCount(total.total_io()), FormatCount(total.collections),
                FormatCount(total.garbage_reclaimed_bytes / 1024),
                FormatCount(total.max_storage_bytes / 1024),
                FormatDouble(total.EfficiencyKbPerIo(), 3), "-",
                any_service ? FormatCount(total_stalls) : "-"});

  std::printf("%zu tenants in %s\n\n", manifests->size(), dir.c_str());
  table.Print(std::cout);
  return 0;
}

// ---------------------------------------------------------------------------
// diff

int RunDiff(const std::string& dir_a, const std::string& dir_b,
            double tolerance_pct) {
  auto loaded_a = LoadManifestDir(dir_a);
  auto loaded_b = LoadManifestDir(dir_b);
  for (const auto* loaded : {&loaded_a, &loaded_b}) {
    if (!loaded->ok()) {
      std::fprintf(stderr, "%s\n", loaded->status().ToString().c_str());
      return 2;
    }
  }

  using RunKey = std::pair<std::string, uint64_t>;  // (policy, seed)
  auto key_runs = [](const std::vector<LoadedManifest>& manifests) {
    std::map<RunKey, const Json*> keyed;
    for (const LoadedManifest& loaded : manifests) {
      keyed[{loaded.manifest.Get("policy")->string_value(),
             UNum(loaded.manifest, "seed")}] = &loaded.manifest;
    }
    return keyed;
  };
  const auto runs_a = key_runs(*loaded_a);
  const auto runs_b = key_runs(*loaded_b);

  size_t matched = 0, identical = 0, regressions = 0, improvements = 0;
  size_t missing_in_b = 0;
  for (const auto& [key, manifest_a] : runs_a) {
    const auto found = runs_b.find(key);
    if (found == runs_b.end()) {
      std::printf("MISSING  %s-s%llu only in %s\n", key.first.c_str(),
                  static_cast<unsigned long long>(key.second), dir_a.c_str());
      ++missing_in_b;
      continue;
    }
    const Json* manifest_b = found->second;
    ++matched;

    if (UNum(*manifest_a, "config_digest") !=
        UNum(*manifest_b, "config_digest")) {
      std::fprintf(stderr,
                   "config digests differ for %s-s%llu — the directories "
                   "hold different experiments; refusing to diff\n",
                   key.first.c_str(),
                   static_cast<unsigned long long>(key.second));
      return 2;
    }
    if (ThreadsAxis(*manifest_a) != ThreadsAxis(*manifest_b)) {
      // Legitimate (the axis is digest-excluded): this is exactly the
      // serial-vs-concurrent equivalence comparison. Surface it so a
      // reader knows why the documents cannot be byte-identical.
      std::printf("note     %s-s%llu compared across thread counts "
                  "(%llu vs %llu)\n",
                  key.first.c_str(),
                  static_cast<unsigned long long>(key.second),
                  static_cast<unsigned long long>(
                      ThreadsAxis(*manifest_a).first),
                  static_cast<unsigned long long>(
                      ThreadsAxis(*manifest_b).first));
    } else if (manifest_a->Dump() == manifest_b->Dump()) {
      ++identical;
      continue;
    }

    const SimulationResult a = ResultFromManifest(*manifest_a);
    const SimulationResult b = ResultFromManifest(*manifest_b);
    for (const MetricDef& metric : kMetrics) {
      const double value_a = metric.read(a);
      const double value_b = metric.read(b);
      if (value_a == value_b) continue;
      bool regressed = IsRegression(metric, value_a, value_b,
                                    tolerance_pct);
      bool improved = IsRegression(metric, value_b, value_a,
                                   tolerance_pct);
      if (!metric.in_baseline) {
        // Direction-aware but informational: wall-clock measurements
        // differ on every run of the same code, so they never fail a
        // diff.
        std::printf("%-8s %s-s%llu %-24s %14.2f -> %14.2f\n",
                    regressed ? "slower" : improved ? "faster" : "within-tol",
                    key.first.c_str(),
                    static_cast<unsigned long long>(key.second), metric.name,
                    value_a, value_b);
        continue;
      }
      std::printf("%-8s %s-s%llu %-24s %14.2f -> %14.2f\n",
                  regressed ? "WORSE" : improved ? "better" : "within-tol",
                  key.first.c_str(),
                  static_cast<unsigned long long>(key.second), metric.name,
                  value_a, value_b);
      regressions += regressed;
      improvements += improved;
    }
  }
  size_t only_in_b = 0;
  for (const auto& [key, manifest] : runs_b) {
    (void)manifest;
    if (runs_a.find(key) == runs_a.end()) {
      std::printf("NEW      %s-s%llu only in %s\n", key.first.c_str(),
                  static_cast<unsigned long long>(key.second), dir_b.c_str());
      ++only_in_b;
    }
  }

  std::printf(
      "\n%zu matched (%zu byte-identical), %zu regressions, "
      "%zu improvements, %zu missing from %s, %zu new\n",
      matched, identical, regressions, improvements, missing_in_b,
      dir_b.c_str(), only_in_b);
  return (regressions > 0 || missing_in_b > 0) ? 1 : 0;
}

// ---------------------------------------------------------------------------
// check

/// Per-policy means of every comparable metric.
std::map<std::string, std::map<std::string, double>> PolicyMeans(
    const Experiment& experiment) {
  std::map<std::string, std::map<std::string, double>> means;
  for (const PolicyRuns& set : experiment.sets) {
    for (const MetricDef& metric : kMetrics) {
      double sum = 0;
      for (const SimulationResult& run : set.runs) sum += metric.read(run);
      means[set.name][metric.name] =
          sum / static_cast<double>(set.runs.size());
    }
  }
  return means;
}

int WriteBaseline(const std::string& path,
                  const std::map<std::string, std::map<std::string, double>>&
                      means,
                  double tolerance_pct) {
  Json policies = Json::Obj();
  for (const auto& [policy, metrics] : means) {
    Json entry = Json::Obj();
    for (const auto& [metric, value] : metrics) {
      // Wall-clock metrics never enter the checked-in baseline (they are
      // not reproducible); they remain visible in tables and diff.
      const MetricDef* def = FindMetric(metric);
      if (def != nullptr && !def->in_baseline) continue;
      entry.Set(metric, Json::Double(value));
    }
    policies.Set(policy, std::move(entry));
  }
  Json baseline = Json::Obj();
  baseline.Set("schema_version", Json::UInt(kManifestSchemaVersion));
  baseline.Set("tolerance_pct", Json::Double(tolerance_pct));
  baseline.Set("policies", std::move(policies));

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << baseline.Dump();
  if (!out.good()) {
    std::fprintf(stderr, "cannot write baseline %s\n", path.c_str());
    return 2;
  }
  std::printf("wrote baseline %s\n", path.c_str());
  return 0;
}

int RunCheck(const std::string& dir, const std::string& baseline_path,
             double tolerance_pct, bool tolerance_set, bool write) {
  auto manifests = LoadManifestDir(dir);
  if (!manifests.ok()) {
    std::fprintf(stderr, "%s\n", manifests.status().ToString().c_str());
    return 2;
  }
  const auto means = PolicyMeans(GroupByPolicy(*manifests));
  if (write) {
    return WriteBaseline(baseline_path, means,
                         tolerance_set ? tolerance_pct : 10.0);
  }

  std::ifstream in(baseline_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open baseline %s\n", baseline_path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  auto baseline = Json::Parse(text.str());
  if (!baseline.ok()) {
    std::fprintf(stderr, "%s: %s\n", baseline_path.c_str(),
                 baseline.status().ToString().c_str());
    return 2;
  }
  const Json* policies = baseline->Get("policies");
  if (policies == nullptr || !policies->is_object()) {
    std::fprintf(stderr, "%s: missing \"policies\" object\n",
                 baseline_path.c_str());
    return 2;
  }
  if (!tolerance_set) {
    if (const Json* t = baseline->Get("tolerance_pct");
        t != nullptr && t->is_number()) {
      tolerance_pct = t->double_value();
    }
  }

  size_t checked = 0, regressions = 0;
  for (const auto& [policy, expected] : policies->object()) {
    const auto found = means.find(policy);
    if (found == means.end()) {
      std::printf("check %-20s MISSING (baseline policy has no manifests)\n",
                  policy.c_str());
      ++regressions;
      continue;
    }
    for (const auto& [metric_name, expected_value] : expected.object()) {
      const MetricDef* metric = FindMetric(metric_name);
      if (metric == nullptr) {
        std::fprintf(stderr, "%s: unknown metric \"%s\" for %s\n",
                     baseline_path.c_str(), metric_name.c_str(),
                     policy.c_str());
        return 2;
      }
      const double reference = expected_value.double_value();
      const double actual = found->second.at(metric_name);
      const bool regressed =
          IsRegression(*metric, reference, actual, tolerance_pct);
      std::printf("check %-20s %-24s %14.2f vs baseline %14.2f (+/-%g%%) %s\n",
                  policy.c_str(), metric_name.c_str(), actual, reference,
                  tolerance_pct, regressed ? "REGRESSION" : "OK");
      ++checked;
      regressions += regressed;
    }
  }
  std::printf("\n%zu checks, %zu regressions\n", checked, regressions);
  return regressions > 0 ? 1 : 0;
}

}  // namespace
}  // namespace odbgc

int main(int argc, char** argv) {
  using namespace odbgc;
  if (argc < 2) return Usage();
  const std::string command = argv[1];

  std::vector<std::string> positional;
  std::string baseline_path;
  double tolerance_pct = 0.0;
  bool tolerance_set = false;
  bool write = false;
  bool ok = true;  // Cleared by a numeric value that does not parse.
  for (int i = 2; i < argc; ++i) {
    std::string value;
    if (ParseNumberFlag(argv[i], "--tolerance", &tolerance_pct, &ok)) {
      tolerance_set = true;
    } else if (ParseFlag(argv[i], "--baseline", &value)) {
      baseline_path = value;
    } else if (std::strcmp(argv[i], "--write") == 0) {
      write = true;
    } else if (argv[i][0] == '-') {
      return Usage();
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (!ok) return 2;

  if (command == "tables" && positional.size() == 1) {
    return RunTables(positional[0]);
  }
  if (command == "tenants" && positional.size() == 1) {
    return RunTenants(positional[0]);
  }
  if (command == "digests" && positional.size() == 1) {
    return RunDigests(positional[0]);
  }
  if (command == "diff" && positional.size() == 2) {
    return RunDiff(positional[0], positional[1], tolerance_pct);
  }
  if (command == "check" && positional.size() == 1 &&
      !baseline_path.empty()) {
    return RunCheck(positional[0], baseline_path, tolerance_pct,
                    tolerance_set, write);
  }
  return Usage();
}
