// odbgc benchmark harness: runs one named workload, checks every simulated
// result, and writes a JSON report that perfbench/run.py turns into the
// benchmark's result line.
//
//   odbgc_perfbench --workload <name> --seed <n> --trace <0|1>
//                   --work-dir <dir> --report <file> [--spans <file>]
//
// Workloads (the reasons for each are recorded in perfbench/workloads.json):
//   paper_tables      the paper's six policies at PaperBaseConfig(), one
//                     simulation each, through RunExperiment on one thread
//   file_write_heavy  one write-heavy UpdatedPointer simulation on the
//                     "file:" device with an 8-page buffer, the process
//                     pinned to one CPU
//   tenant_fleet      HeapService hosting 32 tenants on one shared frame
//                     arena under 0.75 overcommit and a 0.5 watermark
//
// With --trace 0 the harness runs one repetition of the workload and reports
// its end-to-end metrics; run.py repeats it in fresh processes for the run's
// time budget and aggregates the repetitions. With --trace 1 it runs the
// workload once untraced and once traced (tenant_fleet also once on a single
// worker, for the measured speedup), and reports per-layer metrics.
//
// Every per-layer number is measured from outside the library: this file
// times its own calls into public functions (generator rounds,
// Simulator::Append per event kind, Simulator::Finish, HeapService::Run)
// and reads counters the library already exposes (SimulationResult,
// ServiceResult, MeasuredIoStats, the heap's wall_metrics() registry,
// SimObserver callbacks). Splits that need spans inside the library
// (buffer lookup versus object store inside one Append; barrier versus
// tenant steps inside HeapService::Run) are not attempted.

#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "observe/json.h"
#include "observe/manifest.h"
#include "observe/observer.h"
#include "service/heap_service.h"
#include "sim/config.h"
#include "sim/runner.h"
#include "sim/simulator.h"
#include "sim/spec.h"
#include "storage/file_device.h"
#include "util/crc32.h"
#include "workload/generator.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace odbgc::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

int64_t NanosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

// ---------------------------------------------------------------------------
// Small statistics helpers.

// Nearest-rank percentile: the smallest value with at least p of the sample
// at or below it.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

// Log-bucketed histogram of nanosecond durations: 32 sub-buckets per power
// of two (about 3% resolution) in fixed memory, so per-event timings of a
// multi-million-event run stay bounded.
class LogHistogram {
 public:
  void Add(uint64_t value) {
    ++buckets_[Index(value)];
    ++count_;
  }
  uint64_t count() const { return count_; }

  // Nearest-rank percentile, reported as the midpoint of its bucket.
  double Percentile(double p) const {
    if (count_ == 0) return 0.0;
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(p * static_cast<double>(count_))));
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen >= rank) return Midpoint(i);
    }
    return Midpoint(buckets_.size() - 1);
  }

 private:
  static constexpr int kSubBits = 5;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;

  static size_t Index(uint64_t value) {
    if (value < kSub) return static_cast<size_t>(value);
    const int exponent = 63 - __builtin_clzll(value);
    const uint64_t sub = (value >> (exponent - kSubBits)) & (kSub - 1);
    return static_cast<size_t>((exponent - kSubBits + 1) * kSub + sub);
  }
  static double Midpoint(size_t index) {
    if (index < kSub) return static_cast<double>(index);
    const int exponent = static_cast<int>(index / kSub) + kSubBits - 1;
    const uint64_t sub = index % kSub;
    const double width = std::ldexp(1.0, exponent - kSubBits);
    return static_cast<double>(kSub + sub) * width + width / 2;
  }

  std::array<uint64_t, 64 * kSub> buckets_{};
  uint64_t count_ = 0;
};

// ---------------------------------------------------------------------------
// Spans: name, start, end, the span that caused it, and the thread lane
// (0 = the harness's thread, i + 1 = tenant i). Kept in memory and written as
// Chrome trace-event JSON when the benchmark ends.

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  int Begin(const char* name, int parent, uint32_t lane = 0) {
    spans_.push_back({name, Clock::now(), Clock::time_point{}, parent, lane});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int index) { spans_[static_cast<size_t>(index)].end = Clock::now(); }
  int Add(const char* name, Clock::time_point start, Clock::time_point end,
          int parent, uint32_t lane) {
    spans_.push_back({name, start, end, parent, lane});
    return static_cast<int>(spans_.size()) - 1;
  }

  double Seconds(int index) const {
    const Span& span = spans_[static_cast<size_t>(index)];
    return SecondsBetween(span.start, span.end);
  }

  // Per-name self time: a span's duration minus the part its children on
  // the same lane cover (children on other lanes run concurrently).
  std::map<std::string, double> SelfSeconds() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = SecondsBetween(spans_[i].start, spans_[i].end);
    }
    for (const Span& span : spans_) {
      if (span.parent < 0) continue;
      const Span& parent = spans_[static_cast<size_t>(span.parent)];
      if (parent.lane != span.lane) continue;
      self[static_cast<size_t>(span.parent)] -=
          SecondsBetween(span.start, span.end);
    }
    std::map<std::string, double> by_name;
    for (size_t i = 0; i < spans_.size(); ++i) {
      by_name[spans_[i].name] += self[i];
    }
    return by_name;
  }

  bool WriteChromeTrace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << span.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.lane
          << ",\"ts\":" << NanosBetween(origin_, span.start) / 1000.0
          << ",\"dur\":" << NanosBetween(span.start, span.end) / 1000.0
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
          << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
    uint32_t lane;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Run-wide state: options, checks, failure accounting, digests, report.

struct Options {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  std::string work_dir = ".";
  std::string report_path;
  std::string spans_path;
};

struct RunState {
  Options options;
  uint64_t sims_attempted = 0;
  uint64_t sims_failed = 0;
  Json checks = Json::Arr();
  bool checks_ok = true;
  // Result digests of the (untraced) repetition, by simulation name.
  std::map<std::string, std::string> digests;
  Json env = Json::Obj();
  std::map<std::string, std::pair<double, std::string>> metrics;
  // Untraced runs only: megabytes of application allocation replayed, the
  // host seconds spent replaying them (the repetition's wall minus its
  // setup), and each simulation's completion time (RepSample::done_s).
  double allocated_mb = 0;
  double timed_s = 0;
  std::vector<double> done_s;
  SpanLog spans;

  void Check(bool ok, const std::string& name, const std::string& detail) {
    Json check = Json::Obj();
    check.Set("name", Json::Str(name));
    check.Set("ok", Json::Bool(ok));
    if (!detail.empty()) check.Set("detail", Json::Str(detail));
    checks.Push(std::move(check));
    if (!ok) {
      checks_ok = false;
      std::fprintf(stderr, "perfbench: check failed: %s %s\n", name.c_str(),
                   detail.c_str());
    }
  }

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
};

std::string Hex32(uint32_t value) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", value);
  return buf;
}

// CRC-32 of the canonical manifest `result` section: every deterministic
// field of a SimulationResult (measured I/O and timing are outside it).
std::string ResultDigest(const SimulationConfig& config,
                         const SimulationResult& result) {
  const Json manifest = BuildManifest(config, result);
  const Json* section = manifest.Get("result");
  return Hex32(Crc32(section == nullptr ? std::string() : section->Dump()));
}

// The digest with the backend's identity and its device-specific counters
// removed: what a file-device run must share with the same stream replayed
// on the simulated disk (FileDevice's determinism contract).
std::string DeviceNeutralDigest(const SimulationConfig& config,
                                SimulationResult result) {
  result.device = DeviceKind::kSimulatedDisk;
  result.metrics.clear();
  result.measured = MeasuredIoStats{};
  return ResultDigest(config, result);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof usage);
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string FilesystemType(const std::string& dir) {
  struct statfs info;
  if (statfs(dir.c_str(), &info) != 0) return "unknown";
  switch (static_cast<uint64_t>(info.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    case 0x858458F6: return "ramfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%llx",
                    static_cast<unsigned long long>(info.f_type));
      return buf;
    }
  }
}

unsigned HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

// Restricts the process to the CPU it is running on; threads started later
// (the I/O scheduler's workers) inherit the mask. Returns that CPU, or -1 if
// the mask could not be set.
int PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

// ---------------------------------------------------------------------------
// End-to-end metrics of one repetition. run.py reports alloc_mb_per_s and
// the tenant_done_s percentiles over all of a run's repetitions together
// (their megabytes over their timed seconds; the completion times of all
// their simulations) and the median of every other metric.

double Megabytes(uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

struct RepSample {
  // Application allocation replayed by the repetition's simulations. Every
  // simulation of a workload allocates the same volume whatever its seed,
  // while its event count varies by up to a third from seed to seed.
  double allocated_mb = 0;
  double wall_s = 0;
  double setup_s = 0;
  // Host seconds from the repetition's start to each simulation's
  // OnRunFinished.
  std::vector<double> done_s;
};

void ReportEndToEnd(RunState* state, const RepSample& rep) {
  state->allocated_mb = rep.allocated_mb;
  state->timed_s = rep.wall_s - rep.setup_s;
  state->done_s = rep.done_s;
  state->Metric("alloc_mb_per_s", Ratio(state->allocated_mb, state->timed_s),
                "MB/s");
  state->Metric("setup_s", rep.setup_s, "s");
  state->Metric("peak_rss_mb", PeakRssMb(), "MB");
  state->Metric("tenant_done_s_p50", Percentile(rep.done_s, 0.50), "s");
  state->Metric("tenant_done_s_p68", Percentile(rep.done_s, 0.68), "s");
}

// ---------------------------------------------------------------------------
// Per-layer accounting for the traced run.

constexpr std::array<const char*, 6> kKindNames = {
    "alloc", "write_slot", "read_slot", "visit", "write_data", "root"};

size_t KindIndex(EventKind kind) {
  switch (kind) {
    case EventKind::kAlloc: return 0;
    case EventKind::kWriteSlot: return 1;
    case EventKind::kReadSlot: return 2;
    case EventKind::kVisit: return 3;
    case EventKind::kWriteData: return 4;
    case EventKind::kAddRoot:
    case EventKind::kRemoveRoot: return 5;
  }
  return 5;
}

struct KindStats {
  uint64_t total_ns = 0;
  LogHistogram histogram;
};

// Everything the traced run accumulates across the workload's simulations.
struct LayerTotals {
  std::array<KindStats, 6> apply;
  std::vector<double> gc_pause_ns;
  double gen_s = 0;
  double finish_s = 0;
  double index_ns = 0;
  double census_ns = 0;
  double collection_ns = 0;
  double batch_wait_ns = 0;
  double sync_ns = 0;
  uint64_t gc_calls = 0;
};

void ReportSimulatedCounts(RunState* state,
                           const std::vector<SimulationResult>& results) {
  double hits = 0, misses = 0, writebacks = 0, gc_io = 0, reclaimed = 0,
         remset = 0;
  for (const SimulationResult& r : results) {
    hits += static_cast<double>(r.buffer_stats.hits);
    misses += static_cast<double>(r.buffer_stats.misses);
    writebacks += static_cast<double>(r.buffer_stats.writes_app +
                                      r.buffer_stats.writes_gc);
    gc_io += static_cast<double>(r.gc_io);
    reclaimed += static_cast<double>(r.garbage_reclaimed_bytes);
    remset += static_cast<double>(r.remset_entries);
  }
  // Workload sizes, recorded beside the results: peak database pages per
  // simulation against its buffer (or quota).
  if (!results.empty()) {
    uint64_t min_pages = UINT64_MAX, max_pages = 0;
    for (const SimulationResult& r : results) {
      const uint64_t pages = r.max_storage_bytes / kDefaultPageSize;
      min_pages = std::min(min_pages, pages);
      max_pages = std::max(max_pages, pages);
    }
    state->env.Set("database_pages_min", Json::UInt(min_pages));
    state->env.Set("database_pages_max", Json::UInt(max_pages));
    state->env.Set("events_per_simulation",
                   Json::UInt(results.front().app_events));
  }
  state->Metric("buffer.hit_ratio", Ratio(hits, hits + misses), "ratio");
  state->Metric("buffer.misses", misses, "count");
  state->Metric("buffer.writebacks", writebacks, "count");
  state->Metric("buffer.gc_io", gc_io, "count");
  state->Metric("core.gc_kb_per_io", Ratio(reclaimed / 1024.0, gc_io), "KB/io");
  state->Metric("core.remset_entries", remset, "count");
}

void ReportLayers(RunState* state, const LayerTotals& t) {
  for (size_t k = 0; k < kKindNames.size(); ++k) {
    const std::string prefix = std::string("sim.apply_") + kKindNames[k];
    const KindStats& s = t.apply[k];
    state->Metric(prefix + "_s", static_cast<double>(s.total_ns) / 1e9, "s");
    state->Metric(prefix + "_count",
                  static_cast<double>(s.histogram.count()), "count");
    state->Metric(prefix + "_ns_p50", s.histogram.Percentile(0.50), "ns");
    state->Metric(prefix + "_ns_p99", s.histogram.Percentile(0.99), "ns");
  }
  double pause_ns = 0;
  for (double ns : t.gc_pause_ns) pause_ns += ns;
  std::vector<double> pause_ms;
  for (double ns : t.gc_pause_ns) pause_ms.push_back(ns / 1e6);
  state->Metric("workload.gen_s", t.gen_s, "s");
  state->Metric("core.index_maintenance_s", t.index_ns / 1e9, "s");
  state->Metric("core.gc_calls", static_cast<double>(t.gc_calls), "count");
  state->Metric("core.gc_pause_s", pause_ns / 1e9, "s");
  state->Metric("core.gc_pause_ms_p50", Percentile(pause_ms, 0.50), "ms");
  state->Metric("core.gc_pause_ms_p90", Percentile(pause_ms, 0.90), "ms");
  state->Metric("core.gc_copy_s", t.collection_ns / 1e9, "s");
  state->Metric("core.oracle_census_s", t.census_ns / 1e9, "s");
  state->Metric("core.gc_select_s",
                std::max(0.0, pause_ns - t.collection_ns - t.census_ns) / 1e9,
                "s");
  state->Metric("sim.finish_s", t.finish_s, "s");
  state->Metric("storage.batch_wait_s", t.batch_wait_ns / 1e9, "s");
  state->Metric("storage.sync_s", t.sync_ns / 1e9, "s");
}

void ReportStorage(RunState* state, const MeasuredIoStats& m) {
  state->Metric("storage.preads", static_cast<double>(m.reads), "count");
  state->Metric("storage.pwrites", static_cast<double>(m.writes), "count");
  state->Metric("storage.fsyncs", static_cast<double>(m.fsyncs), "count");
  state->Metric("storage.write_batches", static_cast<double>(m.batches),
                "count");
  state->Metric("storage.readahead_hit_ratio",
                Ratio(static_cast<double>(m.readahead_hits),
                      static_cast<double>(m.readahead_hits +
                                          m.readahead_misses)),
                "ratio");
  state->Metric("storage.syscall_s", m.wall_ms / 1e3, "s");
}

// Every per-layer metric, zero until a workload measures it: metrics of a
// layer a workload does not exercise (storage off the file device, the
// service outside the fleet) read 0.
void InitPerLayerMetrics(RunState* state) {
  ReportLayers(state, LayerTotals{});
  ReportSimulatedCounts(state, {});
  ReportStorage(state, MeasuredIoStats{});
  for (const char* name :
       {"service.rounds", "service.admission_stalls",
        "service.forced_collections", "service.forced_admissions",
        "service.peak_occupancy_frames", "arena.squeezed_evictions"}) {
    state->Metric(name, 0, "count");
  }
  state->Metric("service.run_s", 0, "s");
  state->Metric("service.round_ms", 0, "ms");
  state->Metric("service.tenant_gc_thread_s", 0, "s");
  state->Metric("service.speedup_vs_1_thread", 0, "ratio");
  state->Metric("trace.overhead_share", 0, "ratio");
  state->Metric("trace.unattributed_share", 0, "ratio");
}

// Appends generated events to a caller-owned buffer that is reused across
// generator rounds.
class BufferSink : public TraceSink {
 public:
  explicit BufferSink(std::vector<TraceEvent>* out) : out_(out) {}
  Status Append(const TraceEvent& event) override {
    out_->push_back(event);
    return Status::Ok();
  }

 private:
  std::vector<TraceEvent>* const out_;
};

// Observer for one simulation: completion time, plus (traced) the real
// device's batch and fsync wall times.
class SimTimer : public SimObserver {
 public:
  void OnRunFinished(const RunFinishedEvent&) override {
    finished = Clock::now();
  }
  void OnDeviceBatch(const DeviceBatchEvent& event) override {
    if (event.completed) batch_wait_ns += static_cast<double>(event.wall_ns);
  }
  void OnDeviceSync(const DeviceSyncEvent& event) override {
    sync_ns += static_cast<double>(event.wall_ns);
  }

  Clock::time_point finished{};
  double batch_wait_ns = 0;
  double sync_ns = 0;
};

double WallCounterNs(const Simulator& sim, const char* name) {
  const MetricCounter* counter = sim.heap().wall_metrics()->Find(name);
  return counter == nullptr ? 0.0 : static_cast<double>(counter->total());
}

// Replays one simulation through this harness's own loop, timing every call
// into the library: generator build/rounds into a reused buffer, each
// Append (per event kind, or as a collection pause when the heap's
// collection count advanced during it), and Finish. Equivalent to
// Simulator::Run() + Finish(): the generator never looks at the heap, so
// buffering a round before applying it changes nothing simulated.
Result<SimulationResult> RunTracedSimulation(SimulationConfig config,
                                             RunState* state, int parent,
                                             LayerTotals* totals) {
  SpanLog& spans = state->spans;
  SimTimer timer;
  config.heap.profile_hot_paths = true;
  config.heap.observer = &timer;
  ODBGC_RETURN_IF_ERROR(config.workload.Validate());

  const int sim_span = spans.Begin("simulation", parent);
  const int setup_span = spans.Begin("setup", sim_span);
  auto sim = std::make_unique<Simulator>(config);
  WorkloadGenerator generator(config.workload, config.seed);
  spans.End(setup_span);

  const HeapStats& stats = sim->heap().stats();
  std::vector<TraceEvent> buffer;
  BufferSink sink(&buffer);
  bool built = false;
  while (!built || !generator.Done()) {
    buffer.clear();
    const int gen_span = spans.Begin("generate", sim_span);
    const Status generated = built ? generator.RunRound(&sink)
                                   : generator.BuildInitialDatabase(&sink);
    spans.End(gen_span);
    totals->gen_s += spans.Seconds(gen_span);
    ODBGC_RETURN_IF_ERROR(generated);
    built = true;
    for (const TraceEvent& event : buffer) {
      const uint64_t collections = stats.collections + stats.full_collections;
      const Clock::time_point start = Clock::now();
      const Status applied = sim->Append(event);
      const Clock::time_point end = Clock::now();
      ODBGC_RETURN_IF_ERROR(applied);
      const int64_t ns = NanosBetween(start, end);
      if (stats.collections + stats.full_collections != collections) {
        spans.Add("gc_pause", start, end, sim_span, 0);
        totals->gc_pause_ns.push_back(static_cast<double>(ns));
        ++totals->gc_calls;
      } else {
        KindStats& kind = totals->apply[KindIndex(event.kind)];
        kind.total_ns += static_cast<uint64_t>(ns);
        kind.histogram.Add(static_cast<uint64_t>(ns));
      }
    }
  }

  // Read before Finish: the end-of-run census also lands in
  // wall.census_ns, and that one belongs to sim.finish_s.
  totals->census_ns += WallCounterNs(*sim, "wall.census_ns");
  totals->collection_ns += WallCounterNs(*sim, "wall.collection_ns") +
                           WallCounterNs(*sim, "wall.full_collection_ns");
  totals->index_ns += WallCounterNs(*sim, "wall.index_maintenance_ns");
  const int finish_span = spans.Begin("finish", sim_span);
  SimulationResult result = sim->Finish();
  spans.End(finish_span);
  totals->finish_s += spans.Seconds(finish_span);
  totals->batch_wait_ns += timer.batch_wait_ns;
  totals->sync_ns += timer.sync_ns;
  sim.reset();
  spans.End(sim_span);
  return result;
}

// Share of the traced wall that no layer's self time covers: the harness's
// loop, the timers themselves, and anything between the timed calls.
void ReportUnattributed(RunState* state, int rep_span,
                        const LayerTotals& totals) {
  const std::map<std::string, double> self = state->spans.SelfSeconds();
  double apply_s = 0;
  for (const KindStats& kind : totals.apply) {
    apply_s += static_cast<double>(kind.total_ns) / 1e9;
  }
  const auto get = [&self](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double attributed = get("setup") + get("generate") + get("gc_pause") +
                            get("finish") + apply_s;
  const double wall = state->spans.Seconds(rep_span);
  state->Metric("trace.unattributed_share",
                Ratio(std::max(0.0, wall - attributed), wall), "ratio");
}

// ---------------------------------------------------------------------------
// paper_tables

SimulationConfig PaperCellConfig(const std::string& policy, uint64_t seed) {
  SimulationConfig config = PaperBaseConfig();
  config.seed = seed;
  config.heap.policy_name = policy;
  return config;
}

struct CellTimes {
  Clock::time_point created{};
  Clock::time_point started{};
  Clock::time_point finished{};
};

class CellTimer : public SimObserver {
 public:
  explicit CellTimer(CellTimes* times) : times_(times) {
    times_->created = Clock::now();
  }
  void OnRunStarted(const RunStartedEvent&) override {
    times_->started = Clock::now();
  }
  void OnRunFinished(const RunFinishedEvent&) override {
    times_->finished = Clock::now();
  }

 private:
  CellTimes* const times_;
};

// One untraced repetition: the six policies through RunExperiment on one
// grid thread. Setup is each cell's observer creation (just before the
// runner builds its Simulator) to its OnRunStarted (the end of Simulator
// construction).
RepSample PaperTablesRep(RunState* state, uint64_t seed,
                         std::map<std::string, std::string>* digests) {
  const std::vector<std::string>& policies = PaperPolicyNames();
  std::vector<CellTimes> cells(policies.size());
  auto factory = [&cells, &policies](const std::string& policy, uint64_t) {
    const size_t index = static_cast<size_t>(
        std::find(policies.begin(), policies.end(), policy) -
        policies.begin());
    return std::unique_ptr<SimObserver>(
        std::make_unique<CellTimer>(&cells[index]));
  };

  const Clock::time_point start = Clock::now();
  auto experiment = RunExperiment(ExperimentSpec::Base(PaperBaseConfig())
                                      .WithPolicies(policies)
                                      .WithSeeds(1, seed)
                                      .WithThreads(1)
                                      .WithObserver(factory));
  const Clock::time_point end = Clock::now();

  RepSample rep;
  rep.wall_s = SecondsBetween(start, end);
  state->sims_attempted += policies.size();
  if (!experiment.ok()) {
    state->sims_failed += policies.size();
    state->Check(false, "paper_tables.run", experiment.status().ToString());
    return rep;
  }
  const SimulationResult* first = nullptr;
  for (size_t i = 0; i < policies.size(); ++i) {
    const PolicyRuns* runs = experiment->Find(policies[i]);
    if (runs == nullptr || runs->runs.size() != 1) {
      ++state->sims_failed;
      state->Check(false, "paper_tables.cell." + policies[i], "missing");
      continue;
    }
    const SimulationResult& result = runs->runs.front();
    if (first == nullptr) first = &result;
    // The generator never looks at the heap, so every policy replays the
    // identical stream: the workload totals must agree across cells.
    const bool same_stream = result.app_events == first->app_events &&
                             result.bytes_allocated == first->bytes_allocated &&
                             result.pointer_overwrites ==
                                 first->pointer_overwrites;
    if (!same_stream) ++state->sims_failed;
    state->Check(same_stream, "paper_tables.same_stream." + policies[i],
                 same_stream ? "" : "workload totals differ from " +
                                        first->policy_name);
    (*digests)[policies[i]] =
        ResultDigest(PaperCellConfig(policies[i], seed), result);
    rep.allocated_mb += Megabytes(result.bytes_allocated);
    rep.setup_s += SecondsBetween(cells[i].created, cells[i].started);
    rep.done_s.push_back(SecondsBetween(start, cells[i].finished));
  }
  return rep;
}

void RunPaperTables(RunState* state) {
  state->env.Set("grid_threads", Json::UInt(1));
  state->env.Set("simulations_per_repetition",
                 Json::UInt(PaperPolicyNames().size()));
  if (!state->options.trace) {
    ReportEndToEnd(state, PaperTablesRep(state, state->options.seed,
                                          &state->digests));
    return;
  }

  std::map<std::string, std::string> untraced;
  const RepSample baseline =
      PaperTablesRep(state, state->options.seed, &untraced);
  state->digests = untraced;

  LayerTotals totals;
  std::vector<SimulationResult> results;
  const int rep_span = state->spans.Begin("repetition", -1);
  for (const std::string& policy : PaperPolicyNames()) {
    const SimulationConfig config =
        PaperCellConfig(policy, state->options.seed);
    ++state->sims_attempted;
    auto result = RunTracedSimulation(config, state, rep_span, &totals);
    if (!result.ok()) {
      ++state->sims_failed;
      state->Check(false, "paper_tables.traced." + policy,
                   result.status().ToString());
      continue;
    }
    const std::string digest = ResultDigest(config, *result);
    const bool same = digest == untraced[policy];
    if (!same) ++state->sims_failed;
    state->Check(same, "paper_tables.traced_digest." + policy,
                 same ? "" : digest + " != untraced " + untraced[policy]);
    results.push_back(std::move(result).value());
  }
  state->spans.End(rep_span);

  ReportLayers(state, totals);
  ReportSimulatedCounts(state, results);
  state->Metric("trace.overhead_share",
                Ratio(state->spans.Seconds(rep_span), baseline.wall_s) - 1.0,
                "ratio");
  ReportUnattributed(state, rep_span, totals);
}

// ---------------------------------------------------------------------------
// file_write_heavy

SimulationConfig FileWriteHeavyConfig(uint64_t seed,
                                      const std::string& device_spec) {
  SimulationConfig config = PaperBaseConfig();
  config.workload = config.workload.WithTotalAllocation(5ull << 20);
  config.workload.visit_modify_prob = 0.20;
  config.workload.dense_edge_prob = 0.167;
  config.heap.buffer_pages = 8;
  config.heap.policy_name = "UpdatedPointer";
  config.heap.device_spec = device_spec;
  config.seed = seed;
  return config;
}

std::string WorkFilePath(const RunState& state) {
  return state.options.work_dir + "/file_write_heavy-" +
         std::to_string(::getpid()) + ".odb";
}

// The same stream replayed on the simulated disk, untimed: every file run
// must match it (FileDevice's determinism contract).
std::string SimulatedDiskDigest(RunState* state, uint64_t seed) {
  const SimulationConfig config = FileWriteHeavyConfig(seed, "");
  Simulator sim(config);
  const Status ran = sim.Run();
  if (!ran.ok()) {
    state->Check(false, "file_write_heavy.reference_run", ran.ToString());
  }
  return DeviceNeutralDigest(config, sim.Finish());
}

// One untraced repetition on the file device. Setup is Simulator
// construction, which opens (create + truncate) the working file and
// starts the I/O scheduler's workers.
RepSample FileWriteHeavyRep(RunState* state, uint64_t seed,
                            std::map<std::string, std::string>* digests) {
  const std::string reference = SimulatedDiskDigest(state, seed);
  const std::string path = WorkFilePath(*state);
  SimulationConfig config = FileWriteHeavyConfig(seed, "file:" + path);
  SimTimer timer;
  config.heap.observer = &timer;

  RepSample rep;
  const Clock::time_point start = Clock::now();
  auto sim = std::make_unique<Simulator>(config);
  const Clock::time_point constructed = Clock::now();
  const Status ran = sim->Run();
  SimulationResult result;
  if (ran.ok()) result = sim->Finish();
  const Clock::time_point end = Clock::now();

  const auto* device = dynamic_cast<const FileDevice*>(&sim->heap().device());
  state->env.Set("direct_io_effective",
                 Json::Bool(device != nullptr &&
                            device->direct_io_effective()));
  sim.reset();
  ::unlink(path.c_str());

  rep.wall_s = SecondsBetween(start, end);
  rep.setup_s = SecondsBetween(start, constructed);
  ++state->sims_attempted;
  if (!ran.ok()) {
    ++state->sims_failed;
    state->Check(false, "file_write_heavy.run", ran.ToString());
    return rep;
  }
  const std::string digest = DeviceNeutralDigest(config, result);
  const bool same = digest == reference;
  if (!same) ++state->sims_failed;
  state->Check(same, "file_write_heavy.matches_simulated_disk",
               same ? "" : digest + " != " + reference);
  (*digests)["UpdatedPointer"] = digest;
  rep.allocated_mb = Megabytes(result.bytes_allocated);
  rep.done_s.push_back(SecondsBetween(start, timer.finished));
  return rep;
}

void RunFileWriteHeavy(RunState* state) {
  // Every page transfer is handed to an I/O worker and waited for. On one
  // CPU that hand-off is two context switches; spread over CPUs it also
  // waits for an idle virtual CPU to be woken by the host, whose latency
  // swings by 2x from minute to minute on a shared machine.
  const int cpu = PinToCurrentCpu();
  state->env.Set("cpu_affinity", Json::Str(cpu < 0 ? "not pinned"
                                                   : "pinned to cpu " +
                                                         std::to_string(cpu)));
  const uint64_t seed = state->options.seed;
  const FileDeviceOptions defaults;
  state->env.Set("work_dir_fs",
                 Json::Str(FilesystemType(state->options.work_dir)));
  state->env.Set("direct_io_requested", Json::Bool(defaults.direct_io));
  state->env.Set("fsync_policy", Json::Str(defaults.sync_on_barrier
                                               ? "fsync per write batch"
                                               : "no fsync"));
  state->env.Set("readahead_pages", Json::UInt(defaults.readahead_pages));
  state->env.Set("io_threads",
                 Json::UInt(defaults.io_threads > 0
                                ? static_cast<uint64_t>(defaults.io_threads)
                                : HardwareThreads()));
  state->env.Set("simulations_per_repetition", Json::UInt(1));

  if (!state->options.trace) {
    ReportEndToEnd(state, FileWriteHeavyRep(state, seed, &state->digests));
    return;
  }

  std::map<std::string, std::string> untraced;
  const RepSample baseline = FileWriteHeavyRep(state, seed, &untraced);
  state->digests = untraced;
  const std::string& reference = untraced["UpdatedPointer"];

  const std::string path = WorkFilePath(*state);
  const SimulationConfig config = FileWriteHeavyConfig(seed, "file:" + path);
  LayerTotals totals;
  const int rep_span = state->spans.Begin("repetition", -1);
  ++state->sims_attempted;
  auto result = RunTracedSimulation(config, state, rep_span, &totals);
  state->spans.End(rep_span);
  ::unlink(path.c_str());
  if (!result.ok()) {
    ++state->sims_failed;
    state->Check(false, "file_write_heavy.traced", result.status().ToString());
    return;
  }
  const std::string digest = DeviceNeutralDigest(config, *result);
  const bool same = digest == reference;
  if (!same) ++state->sims_failed;
  state->Check(same, "file_write_heavy.traced_matches_simulated_disk",
               same ? "" : digest + " != " + reference);

  ReportLayers(state, totals);
  ReportSimulatedCounts(state, {*result});
  ReportStorage(state, result->measured);
  state->Metric("trace.overhead_share",
                Ratio(state->spans.Seconds(rep_span), baseline.wall_s) - 1.0,
                "ratio");
  ReportUnattributed(state, rep_span, totals);
}

// ---------------------------------------------------------------------------
// tenant_fleet

constexpr size_t kFleetTenants = 32;

// The four examples/run_service default policies, cycled across tenants.
const std::vector<std::string>& FleetPolicies() {
  static const std::vector<std::string> policies = {
      "UpdatedPointer", "MostGarbage", "WeightedPointer", "MutatedPartition"};
  return policies;
}

uint32_t FleetThreads() { return std::min(4u, HardwareThreads()); }

ServiceSpec FleetSpec(uint64_t seed, uint32_t threads, SimObserver* observer) {
  ServiceSpec spec = ServiceSpec::Hosting({})
                         .WithThreads(threads)
                         .WithWatermark(0.5)
                         .WithObserver(observer);
  uint64_t cap_sum = 0;
  for (size_t i = 0; i < kFleetTenants; ++i) {
    TenantSpec tenant =
        TenantSpec::Base()
            .Named("tenant" + std::to_string(i))
            .WithPolicy(FleetPolicies()[i % FleetPolicies().size()])
            .WithSeed(seed + i)
            .WithTotalAllocationMb(1);
    cap_sum += tenant.config.heap.buffer_pages;
    spec.tenants.push_back(std::move(tenant));
  }
  spec.shared_frame_budget =
      static_cast<uint64_t>(static_cast<double>(cap_sum) * 0.75);
  return spec;
}

// What a fleet run's observer saw. Collection and census totals are
// thread-seconds summed over tenants, and only gathered when traced.
struct FleetObservations {
  Clock::time_point first_started{};
  std::vector<Clock::time_point> finished =
      std::vector<Clock::time_point>(kFleetTenants);
  uint64_t collections = 0;
  double collection_ns = 0;
  double finish_ns = 0;
  std::vector<double> collection_ms;
};

// Service-wide observer. The service delivers every tenant's events
// through a serializing wrapper tagged tenant index + 1, one event at a
// time, so no locking is needed here.
class FleetObserver : public SimObserver {
 public:
  FleetObserver(FleetObservations* seen, SpanLog* spans, int parent)
      : seen_(seen),
        spans_(spans),
        parent_(parent),
        census_start_(kFleetTenants) {}

  void OnRunStarted(const RunStartedEvent&) override {
    if (seen_->first_started == Clock::time_point{}) {
      seen_->first_started = Clock::now();
    }
  }
  void OnRunFinished(const RunFinishedEvent& event) override {
    const Clock::time_point now = Clock::now();
    const size_t tenant = event.thread - 1;
    if (tenant >= kFleetTenants) return;
    seen_->finished[tenant] = now;
    if (spans_ != nullptr && census_start_[tenant] != Clock::time_point{}) {
      spans_->Add("tenant.finish", census_start_[tenant], now, parent_,
                  event.thread);
    }
  }
  void OnCollection(const CollectionEvent&) override { ++seen_->collections; }
  void OnPhase(const PhaseEvent& event) override {
    if (spans_ == nullptr) return;
    const Clock::time_point now = Clock::now();
    const Clock::time_point start =
        now - std::chrono::nanoseconds(event.wall_ns);
    const size_t tenant = event.thread - 1;
    if (std::strcmp(event.phase, "census") == 0 && tenant < kFleetTenants) {
      // A tenant's Simulator::Finish opens with its end-of-run census.
      census_start_[tenant] = start;
      seen_->finish_ns += static_cast<double>(event.wall_ns);
    } else if (std::strcmp(event.phase, "collection") == 0 ||
               std::strcmp(event.phase, "full_collection") == 0) {
      spans_->Add("collection", start, now, parent_, event.thread);
      seen_->collection_ns += static_cast<double>(event.wall_ns);
      seen_->collection_ms.push_back(static_cast<double>(event.wall_ns) / 1e6);
    }
  }

 private:
  FleetObservations* const seen_;
  SpanLog* const spans_;
  const int parent_;
  std::vector<Clock::time_point> census_start_;
};

struct FleetRun {
  RepSample rep;
  bool ok = false;
  double run_s = 0;
  ServiceResult result;
  std::map<std::string, std::string> digests;
  FleetObservations seen;
};

std::string ServiceCountersDigest(const ServiceResult& r) {
  const std::string text =
      std::to_string(r.rounds) + "/" + std::to_string(r.forced_collections) +
      "/" + std::to_string(r.admission_stalls) + "/" +
      std::to_string(r.forced_admissions) + "/" +
      std::to_string(r.peak_occupancy_frames) + "/" +
      std::to_string(r.squeezed_evictions);
  return Hex32(Crc32(text));
}

// One fleet run. Setup runs from just before the service is constructed to
// the first tenant's OnRunStarted (service validation, arena, tenant
// preparation and the first tenant heap); tenant completion times come
// from each tenant's OnRunFinished. With `spans`, the run is recorded as a
// "service.run" span with its setup, tenant collections and tenant
// finishes beneath it.
FleetRun RunFleet(RunState* state, uint64_t seed, uint32_t threads,
                  SpanLog* spans) {
  FleetRun run;
  const int run_span = spans != nullptr ? spans->Begin("service.run", -1) : -1;
  FleetObserver observer(&run.seen, spans, run_span);
  ServiceSpec spec = FleetSpec(seed, threads, &observer);
  std::vector<SimulationConfig> configs;
  for (const TenantSpec& tenant : spec.tenants) {
    configs.push_back(tenant.config);
  }

  const Clock::time_point start = Clock::now();
  HeapService service(std::move(spec));
  const Status status = service.Run();
  const Clock::time_point end = Clock::now();
  if (spans != nullptr) {
    spans->End(run_span);
    spans->Add("setup", start, run.seen.first_started, run_span, 0);
  }
  run.run_s = SecondsBetween(start, end);
  run.rep.wall_s = run.run_s;
  run.rep.setup_s = SecondsBetween(start, run.seen.first_started);
  state->sims_attempted += kFleetTenants;
  if (!status.ok()) {
    state->sims_failed += kFleetTenants;
    state->Check(false, "tenant_fleet.run", status.ToString());
    return run;
  }
  run.result = service.Finish();
  const ServiceResult& r = run.result;

  // Service invariants. A violation fails every tenant of the run: they
  // all ran under the broken schedule.
  uint64_t max_allowance = 0;
  for (const SimulationConfig& config : configs) {
    max_allowance = std::max<uint64_t>(max_allowance, config.heap.buffer_pages);
  }
  const bool bound_holds =
      r.forced_admissions != 0 ||
      r.peak_occupancy_frames <= r.watermark_frames + max_allowance;
  state->Check(bound_holds, "tenant_fleet.occupancy_bound",
               "peak " + std::to_string(r.peak_occupancy_frames) +
                   " vs watermark " + std::to_string(r.watermark_frames) +
                   " + " + std::to_string(max_allowance) + ", " +
                   std::to_string(r.forced_admissions) +
                   " forced admissions");
  const bool no_squeeze = r.squeezed_evictions == 0;
  state->Check(no_squeeze, "tenant_fleet.no_squeezed_evictions",
               no_squeeze ? "" : std::to_string(r.squeezed_evictions) +
                                     " squeezed");
  run.ok = bound_holds && no_squeeze;
  if (!run.ok) state->sims_failed += kFleetTenants;

  uint64_t unfinished = 0;
  for (size_t i = 0; i < r.tenants.size() && i < configs.size(); ++i) {
    const SimulationResult& tenant = r.tenants[i];
    if (run.seen.finished[i] == Clock::time_point{} || tenant.app_events == 0) {
      ++unfinished;
      continue;
    }
    run.digests[r.tenant_names[i]] = ResultDigest(configs[i], tenant);
    run.rep.allocated_mb += Megabytes(tenant.bytes_allocated);
    run.rep.done_s.push_back(SecondsBetween(start, run.seen.finished[i]));
  }
  state->sims_failed += unfinished;
  state->Check(unfinished == 0, "tenant_fleet.all_finished",
               unfinished == 0 ? "" : std::to_string(unfinished) +
                                          " tenants did not finish");
  run.digests["service"] = ServiceCountersDigest(r);
  return run;
}

// Generator cost of the fleet, measured by generating every tenant's stream
// standalone: the generator never looks at the heap, so this is exactly the
// stream generation the service performs inside its tenant steps.
double FleetGenerationSeconds(RunState* state) {
  const ServiceSpec spec = FleetSpec(state->options.seed, 1, nullptr);
  std::vector<TraceEvent> buffer;
  BufferSink sink(&buffer);
  const int gen_span = state->spans.Begin("generate", -1);
  for (const TenantSpec& tenant : spec.tenants) {
    WorkloadGenerator generator(tenant.config.workload, tenant.config.seed);
    Status generated = generator.BuildInitialDatabase(&sink);
    while (generated.ok() && !generator.Done()) {
      buffer.clear();
      generated = generator.RunRound(&sink);
    }
    buffer.clear();
    if (!generated.ok()) {
      state->Check(false, "tenant_fleet.generate", generated.ToString());
    }
  }
  state->spans.End(gen_span);
  return state->spans.Seconds(gen_span);
}

void RunTenantFleet(RunState* state) {
  const uint32_t threads = FleetThreads();
  state->env.Set("fleet_threads", Json::UInt(threads));
  state->env.Set("tenants", Json::UInt(kFleetTenants));
  state->env.Set("simulations_per_repetition", Json::UInt(kFleetTenants));

  if (!state->options.trace) {
    FleetRun run = RunFleet(state, state->options.seed, threads, nullptr);
    state->digests = std::move(run.digests);
    ReportEndToEnd(state, run.rep);
    return;
  }

  const uint64_t seed = state->options.seed;
  const FleetRun untraced = RunFleet(state, seed, threads, nullptr);
  state->digests = untraced.digests;
  const FleetRun traced = RunFleet(state, seed, threads, &state->spans);
  const FleetRun serial = RunFleet(state, seed, 1, nullptr);

  // Neither tracing nor the thread count may move a simulated result.
  const auto compare = [state, &untraced](const FleetRun& run,
                                          const char* label) {
    uint64_t mismatched = 0;
    for (const auto& [name, digest] : untraced.digests) {
      auto it = run.digests.find(name);
      if (it == run.digests.end() || it->second != digest) ++mismatched;
    }
    state->sims_failed += std::min<uint64_t>(mismatched, kFleetTenants);
    state->Check(mismatched == 0, std::string("tenant_fleet.") + label,
                 mismatched == 0 ? ""
                                 : std::to_string(mismatched) +
                                       " digests differ");
  };
  compare(traced, "traced_digests_match_untraced");
  compare(serial, "one_thread_digests_match");

  const double gen_s = FleetGenerationSeconds(state);
  if (!traced.ok) return;
  const ServiceResult& r = traced.result;
  ReportSimulatedCounts(state, r.tenants);
  state->Metric("workload.gen_s", gen_s, "s");
  const FleetObservations& seen = traced.seen;
  state->Metric("core.gc_calls", static_cast<double>(seen.collections),
                "count");
  state->Metric("core.gc_pause_s", seen.collection_ns / 1e9, "s");
  state->Metric("core.gc_pause_ms_p50", Percentile(seen.collection_ms, 0.50),
                "ms");
  state->Metric("core.gc_pause_ms_p90", Percentile(seen.collection_ms, 0.90),
                "ms");
  state->Metric("core.gc_copy_s", seen.collection_ns / 1e9, "s");
  state->Metric("sim.finish_s", seen.finish_ns / 1e9, "s");
  state->Metric("service.run_s", traced.run_s, "s");
  state->Metric("service.rounds", static_cast<double>(r.rounds), "count");
  state->Metric("service.round_ms",
                Ratio(traced.run_s * 1e3, static_cast<double>(r.rounds)), "ms");
  state->Metric("service.admission_stalls",
                static_cast<double>(r.admission_stalls), "count");
  state->Metric("service.forced_collections",
                static_cast<double>(r.forced_collections), "count");
  state->Metric("service.forced_admissions",
                static_cast<double>(r.forced_admissions), "count");
  state->Metric("service.peak_occupancy_frames",
                static_cast<double>(r.peak_occupancy_frames), "count");
  state->Metric("arena.squeezed_evictions",
                static_cast<double>(r.squeezed_evictions), "count");
  state->Metric("service.tenant_gc_thread_s", seen.collection_ns / 1e9, "s");
  state->Metric("service.speedup_vs_1_thread",
                Ratio(serial.run_s, traced.run_s), "ratio");
  state->Metric("trace.overhead_share",
                Ratio(traced.run_s, untraced.run_s) - 1.0, "ratio");
  // Tenant steps run on `threads` workers, so the traced run's capacity is
  // run_s x threads thread-seconds; what the observed spans (setup, tenant
  // collections, tenant finishes) do not cover is unattributed. Mutator
  // steps, the barrier and idle workers sit inside HeapService::Run and are
  // not split from outside.
  const double attributed =
      traced.rep.setup_s + (seen.collection_ns + seen.finish_ns) / 1e9;
  const double capacity = traced.run_s * threads;
  state->Metric("trace.unattributed_share",
                Ratio(std::max(0.0, capacity - attributed), capacity), "ratio");
}

// ---------------------------------------------------------------------------

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--work-dir") {
      options->work_dir = value;
    } else if (flag == "--report") {
      options->report_path = value;
    } else if (flag == "--spans") {
      options->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty() &&
         !options->report_path.empty();
}

}  // namespace
}  // namespace odbgc::perfbench

int main(int argc, char** argv) {
  using namespace odbgc;
  using namespace odbgc::perfbench;

  RunState state;
  if (!ParseOptions(argc, argv, &state.options)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --trace <0|1> "
                 "--work-dir <dir> --report <file> "
                 "[--spans <file>]\n",
                 argv[0]);
    return 2;
  }
  const Options& options = state.options;
  state.env.Set("nproc", Json::UInt(HardwareThreads()));
  state.env.Set("build_type", Json::Str(PERFBENCH_BUILD_TYPE));
  if (options.trace) InitPerLayerMetrics(&state);

  if (options.workload == "paper_tables") {
    RunPaperTables(&state);
  } else if (options.workload == "file_write_heavy") {
    RunFileWriteHeavy(&state);
  } else if (options.workload == "tenant_fleet") {
    RunTenantFleet(&state);
  } else {
    std::fprintf(stderr, "unknown workload \"%s\"\n", options.workload.c_str());
    return 2;
  }

  if (options.trace && !options.spans_path.empty()) {
    state.env.Set("spans", Json::UInt(state.spans.size()));
    if (!state.spans.WriteChromeTrace(options.spans_path)) {
      std::fprintf(stderr, "cannot write %s\n", options.spans_path.c_str());
      return 1;
    }
  }

  Json report = Json::Obj();
  report.Set("workload", Json::Str(options.workload));
  report.Set("seed", Json::UInt(options.seed));
  report.Set("trace", Json::Bool(options.trace));
  report.Set("sims_attempted", Json::UInt(state.sims_attempted));
  report.Set("sims_failed", Json::UInt(state.sims_failed));
  report.Set("checks_ok", Json::Bool(state.checks_ok));
  report.Set("allocated_mb", Json::Double(state.allocated_mb));
  report.Set("timed_s", Json::Double(state.timed_s));
  Json done_s = Json::Arr();
  for (double seconds : state.done_s) done_s.Push(Json::Double(seconds));
  report.Set("done_s", std::move(done_s));
  report.Set("checks", state.checks);
  Json digests = Json::Obj();
  for (const auto& [name, digest] : state.digests) {
    digests.Set(name, Json::Str(digest));
  }
  report.Set("digests", std::move(digests));
  report.Set("env", state.env);
  Json metrics = Json::Obj();
  for (const auto& [name, value] : state.metrics) {
    Json metric = Json::Obj();
    metric.Set("value", Json::Double(value.first));
    metric.Set("unit", Json::Str(value.second));
    metrics.Set(name, std::move(metric));
  }
  report.Set("metrics", std::move(metrics));

  std::ofstream out(options.report_path);
  out << report.Dump();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", options.report_path.c_str());
    return 1;
  }
  return 0;
}
