// Self-profiling harness for the simulator's hot paths: six simulation
// probes that stress different subsystems, and five per-operation probes
// of the layers under them:
//
//   census_heavy   MostGarbage + census at every 1000-event snapshot —
//                  dominated by whole-database reachability marking
//   index_heavy    UpdatedPointer + round-robin placement — maximizes
//                  inter-partition pointers, stressing the remembered-set
//                  index and the write barrier
//   no_collection  NoCollection — pure trace-apply throughput; the
//                  instrumentation itself must not slow this down
//   barrier_heavy  MutatedPartition + card-marking barrier + round-robin
//                  placement + a mutation-heavy workload — dominated by
//                  per-store barrier work, per-partition policy counters,
//                  and card scans over the partition rosters
//   buffer_churn   UpdatedPointer with a buffer pool far smaller than
//                  the live set — nearly every page touch misses, so the
//                  frame table and eviction bookkeeping dominate
//   collection_heavy  UpdatedPointer over 192-page partitions of small
//                  objects only (~15K residents each) with a low
//                  overwrite trigger — frequent collections that each
//                  evacuate thousands of objects, so the collector's
//                  per-object cost dominates; a search per evacuated
//                  object (in the roster or the remembered-set index)
//                  shows here first, and one that is not O(1) or
//                  O(log n) makes each collection quadratic
//   checksum_8k    Crc32 over 8 KB pages (its events are pages) — the
//                  cost the file device pays to seal and check each page
//                  frame; the table loop runs it several times slower
//                  than the PCLMULQDQ folding kernel, so this floor fails
//                  a build or dispatch that silently falls back on an
//                  x86-64 CPU that has the instruction
//   pool_hit       BufferPool::GetPage of a resident page — the residency
//                  probe and LRU touch that every page access pays
//   pool_miss_dirty  GetPage for writing, cycling over 1024 pages through
//                  a 64-frame pool — every access misses and evicts a
//                  dirty frame, paying a device write and a device read
//   remset_add_remove  InterPartitionIndex::AddReference and the matching
//                  RemoveReference between two random partitions — the
//                  remembered-set work of a cross-partition pointer store
//   store_slot_write  ObjectStore::WriteSlot between random objects of a
//                  1000-object store — the pointer store itself, under the
//                  heap's write barrier
//
// The per-operation probes' events are their operations, and they share
// one timed loop (TimedLoop). The eleven probes run in five interleaved
// rounds (each round runs every probe once), so a slow spell on the host
// falls on every probe alike. Each probe reports its events/sec as the
// median with min and max over the rounds and, from its median run, the
// process heap high-water mark
// (ru_maxrss — monotonic across the run) and the per-phase wall-clock
// breakdown from the heap's wall-timer registry. The coarse phases
// (census, collection) are always timed; --profile additionally enables
// the per-event timers (index maintenance, trace apply), which cost a few
// clock reads per event and therefore distort the headline events/sec —
// leave it off when comparing throughput numbers. After the rounds, the
// I/O sweep runs the LRU pool once over each of the "disk" and "ssd"
// backends on one fixed access trace; its rows (hit rate, evictions,
// device writes, estimated device time, SSD erases and write
// amplification) are the JSON's `io_sweep` section. Everything is written
// to a JSON file (BENCH_hotpath.json by default).
//
// Usage: hotpath [output.json] [--check baseline.json] [--profile]
//
// With --check, exits 1 if any probe's median events/sec falls below 80%
// of the baseline's value for that probe (a >20% regression). The
// checked-in baseline holds deliberately conservative floors so routine
// CI-hardware variance does not trip it; a trip means a real hot-path
// regression.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "buffer/buffer_pool.h"
#include "core/remembered_set.h"
#include "odb/object_store.h"
#include "sim/simulator.h"
#include "storage/device_registry.h"
#include "storage/disk.h"
#include "util/crc32.h"
#include "util/crc32_internal.h"
#include "util/metrics_registry.h"
#include "util/random.h"

namespace odbgc {
namespace {

using Clock = std::chrono::steady_clock;

struct ProbeResult {
  std::string name;
  uint64_t events = 0;
  double wall_seconds = 0;
  double events_per_sec = 0;
  /// Process peak RSS (KiB) sampled right after the probe. ru_maxrss is a
  /// process-wide high-water mark, so this only ever grows across probes.
  long max_rss_kb = 0;
  std::vector<MetricSample> wall_phases;
};

long MaxRssKb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return usage.ru_maxrss;
}

bool g_profile = false;

ProbeResult RunProbe(const char* name, SimulationConfig config) {
  config.heap.profile_hot_paths = g_profile;
  Simulator sim(config);
  const auto start = Clock::now();
  if (Status status = sim.Run(); !status.ok()) bench::Fail(status, name);
  SimulationResult result = sim.Finish();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  ProbeResult probe;
  probe.name = name;
  probe.events = result.app_events;
  probe.wall_seconds = seconds;
  probe.events_per_sec =
      seconds > 0 ? static_cast<double>(result.app_events) / seconds : 0;
  probe.max_rss_kb = MaxRssKb();
  probe.wall_phases = sim.heap().wall_metrics()->Snapshot();

  std::printf(
      "%-14s events=%-10llu wall=%8.3fs  events/sec=%12.0f  rss=%ld KiB\n",
      name, static_cast<unsigned long long>(probe.events), seconds,
      probe.events_per_sec, probe.max_rss_kb);
  for (const MetricSample& sample : probe.wall_phases) {
    if (sample.total() == 0) continue;
    std::printf("    %-24s %10.1f ms\n", sample.name.c_str(),
                static_cast<double>(sample.total()) / 1e6);
  }
  return probe;
}

/// The per-operation probes' shared timed loop: runs `op(i)` for i in
/// [0, ops) and reports the rate. Setup happens before the call, untimed.
template <typename Op>
ProbeResult TimedLoop(const char* name, uint64_t ops, Op op) {
  const auto start = Clock::now();
  for (uint64_t i = 0; i < ops; ++i) op(i);
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  ProbeResult probe;
  probe.name = name;
  probe.events = ops;
  probe.wall_seconds = seconds;
  probe.events_per_sec = seconds > 0 ? static_cast<double>(ops) / seconds : 0;
  probe.max_rss_kb = MaxRssKb();
  std::printf("%-17s ops=%-10llu wall=%8.3fs  ops/sec=%14.0f\n", name,
              static_cast<unsigned long long>(ops), seconds,
              probe.events_per_sec);
  return probe;
}

// Exits on a failed operation: a probe that timed errors would mislead.
template <typename T>
void Check(const Result<T>& result, const char* probe) {
  if (!result.ok()) bench::Fail(result.status(), probe);
}

ProbeResult ChecksumProbe() {
  constexpr size_t kPageBytes = 8192;
  std::vector<unsigned char> page(kPageBytes);
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<unsigned char>(i * 131 + 7);
  }
  // Each checksum seeds the next, so no call can be skipped or hoisted.
  uint32_t crc = 0;
  ProbeResult probe =
      TimedLoop("checksum_8k", 200000,  // 1.6 GB through Crc32.
                [&](uint64_t) { crc = Crc32(page.data(), page.size(), crc); });
  std::printf("    kernel=%s  (crc %08x)\n",
              crc32_internal::FoldingAvailable() ? "pclmul-folding" : "table",
              static_cast<unsigned>(crc));
  return probe;
}

ProbeResult PoolHitProbe() {
  SimulatedDisk disk(8192);
  disk.AllocatePages(8);
  BufferPool pool(&disk, 16);
  return TimedLoop("pool_hit", 20000000, [&](uint64_t) {
    Check(pool.GetPage(0, AccessMode::kRead), "pool_hit");
  });
}

ProbeResult PoolMissDirtyProbe() {
  constexpr PageId kPages = 1024;  // Cycled through 64 frames: all misses.
  SimulatedDisk disk(8192);
  disk.AllocatePages(kPages);
  BufferPool pool(&disk, 64);
  return TimedLoop("pool_miss_dirty", 500000, [&](uint64_t i) {
    Check(pool.GetPage(static_cast<PageId>(i % kPages), AccessMode::kWrite),
          "pool_miss_dirty");
  });
}

ProbeResult RemsetAddRemoveProbe() {
  InterPartitionIndex index;
  Rng rng(1);
  return TimedLoop("remset_add_remove", 5000000, [&](uint64_t i) {
    const ObjectId source{2 * i + 1};
    const ObjectId target{2 * i + 2};
    const PartitionId from = static_cast<PartitionId>(rng.UniformInt(16));
    const PartitionId to =
        static_cast<PartitionId>((from + 1 + rng.UniformInt(15)) % 16);
    index.AddReference(source, from, 0, target, to);
    index.RemoveReference(source, 0, target);
  });
}

ProbeResult StoreSlotWriteProbe() {
  SimulatedDisk disk(8192);
  BufferPool buffer(&disk, 256);
  StoreOptions options;
  options.pages_per_partition = 48;
  ObjectStore store(options, &disk, &buffer);
  std::vector<ObjectId> ids;
  for (int i = 0; i < 1000; ++i) {
    auto id = store.Allocate(100, 3);
    Check(id, "store_slot_write");
    ids.push_back(*id);
  }
  Rng rng(7);
  return TimedLoop("store_slot_write", 5000000, [&](uint64_t) {
    const ObjectId source = ids[rng.UniformInt(ids.size())];
    const ObjectId target = ids[rng.UniformInt(ids.size())];
    const uint32_t slot = static_cast<uint32_t>(rng.UniformInt(3));
    const Status written = store.WriteSlot(source, slot, target);
    if (!written.ok()) bench::Fail(written, "store_slot_write");
  });
}

// ---- The I/O sweep ----------------------------------------------------------

struct SweepRow {
  std::string device;
  uint64_t hits = 0;
  uint64_t misses = 0;
  double hit_rate = 0.0;
  uint64_t evictions = 0;
  uint64_t device_writes = 0;
  double device_time_ms = 0.0;
  // SSD only (0 on the disk backend).
  uint64_t erases = 0;
  double write_amplification = 0.0;
};

// The LRU pool over `spec`'s backend on one fixed trace: a hot working
// set that fits the pool, uniform cold traffic, and periodic sequential
// scans (a collector sweeping partitions) that evict the hot set.
SweepRow RunSweepConfig(const std::string& spec) {
  constexpr size_t kPages = 512;
  constexpr size_t kFrames = 64;
  constexpr int kSteps = 200000;
  constexpr size_t kHotSet = 48;

  DeviceContext context;
  context.page_size = 4096;
  auto made = MakeDeviceFromSpec(spec, context);
  Check(made, "io_sweep");
  std::unique_ptr<PageDevice> device = std::move(made).value();
  device->AllocatePages(kPages);
  BufferPool pool(device.get(), kFrames);

  Rng rng(42);
  PageId scan_cursor = 0;
  for (int step = 0; step < kSteps; ++step) {
    PageId page;
    const uint64_t draw = rng.UniformInt(100);
    if (draw < 70) {
      page = rng.UniformInt(kHotSet);
    } else if (draw < 90) {
      page = rng.UniformInt(kPages);
    } else {
      page = scan_cursor;
      scan_cursor = (scan_cursor + 1) % kPages;
    }
    const AccessMode mode =
        rng.Bernoulli(0.3) ? AccessMode::kWrite : AccessMode::kRead;
    auto frame = pool.GetPage(page, mode);
    Check(frame, "io_sweep");
    if (mode == AccessMode::kWrite) (*frame)[0] = static_cast<std::byte>(step);
  }

  SweepRow row;
  row.device = spec;
  const BufferStats stats = pool.stats();
  row.hits = stats.hits;
  row.misses = stats.misses;
  row.hit_rate = static_cast<double>(stats.hits) /
                 static_cast<double>(stats.hits + stats.misses);
  row.evictions = stats.misses - pool.resident_pages();
  row.device_writes = device->stats().page_writes;
  row.device_time_ms = device->EstimateTimeMs();
  if (auto* ssd = dynamic_cast<SsdDevice*>(device.get())) {
    row.erases = ssd->erases();
    row.write_amplification = ssd->WriteAmplification();
  }
  return row;
}

/// Pulls `"<probe>_events_per_sec": <number>` out of a baseline JSON file
/// by plain string scanning (no JSON library in the repo; the file is
/// machine-written with known key names).
double BaselineEventsPerSec(const std::string& text, const std::string& probe) {
  const std::string key = "\"" + probe + "_events_per_sec\":";
  const size_t at = text.find(key);
  if (at == std::string::npos) return -1;
  return std::strtod(text.c_str() + at + key.size(), nullptr);
}

}  // namespace
}  // namespace odbgc

int main(int argc, char** argv) {
  using namespace odbgc;

  const char* json_path = "BENCH_hotpath.json";
  const char* baseline_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      g_profile = true;
    } else {
      json_path = argv[i];
    }
  }

  bench::PrintHeader("Hot-path throughput probes",
                     "simulator engineering (no paper table)");

  struct SimProbe {
    const char* name;
    SimulationConfig config;
  };
  std::vector<SimProbe> sim_probes;
  {
    SimulationConfig c = bench::BaseConfig();
    c.heap.policy_name = "MostGarbage";
    c.snapshot_interval = 1000;
    c.census_at_snapshots = true;
    sim_probes.push_back({"census_heavy", c});
  }
  {
    SimulationConfig c = bench::BaseConfig();
    c.heap.policy_name = "UpdatedPointer";
    c.heap.store.placement = PlacementPolicy::kRoundRobin;
    sim_probes.push_back({"index_heavy", c});
  }
  {
    SimulationConfig c = bench::BaseConfig();
    c.heap.policy_name = "NoCollection";
    sim_probes.push_back({"no_collection", c});
  }
  {
    SimulationConfig c = bench::BaseConfig();
    c.heap.policy_name = "MutatedPartition";
    c.heap.barrier = BarrierMode::kCardMarking;
    c.heap.store.placement = PlacementPolicy::kRoundRobin;
    c.workload.visit_modify_prob = 0.20;
    c.workload.dense_edge_prob = 0.167;
    sim_probes.push_back({"barrier_heavy", c});
  }
  {
    SimulationConfig c = bench::BaseConfig();
    c.heap.policy_name = "UpdatedPointer";
    c.heap.buffer_pages = 8;
    sim_probes.push_back({"buffer_churn", c});
  }
  {
    SimulationConfig c = bench::BaseConfig();
    c.heap.policy_name = "UpdatedPointer";
    c.heap.store.pages_per_partition = 192;
    c.heap.buffer_pages = 192;
    c.heap.overwrite_trigger = 25;
    c.workload.large_space_fraction = 0.0;
    sim_probes.push_back({"collection_heavy", c});
  }

  // runs[p] holds probe p's result from every round; the per-operation
  // probes follow the simulation probes.
  ProbeResult (*const op_probes[])() = {ChecksumProbe, PoolHitProbe,
                                        PoolMissDirtyProbe,
                                        RemsetAddRemoveProbe,
                                        StoreSlotWriteProbe};
  constexpr int kRounds = 5;
  std::vector<std::vector<ProbeResult>> runs(sim_probes.size() +
                                             std::size(op_probes));
  for (int round = 1; round <= kRounds; ++round) {
    std::printf("-- round %d of %d\n", round, kRounds);
    for (size_t p = 0; p < sim_probes.size(); ++p) {
      runs[p].push_back(RunProbe(sim_probes[p].name, sim_probes[p].config));
    }
    for (size_t o = 0; o < std::size(op_probes); ++o) {
      runs[sim_probes.size() + o].push_back(op_probes[o]());
    }
  }

  std::printf("\nI/O sweep: lru x {disk, ssd}, fixed trace\n");
  std::printf("%-6s %9s %9s %10s %14s %7s %6s\n", "device", "hit_rate",
              "misses", "evictions", "device_ms", "erases", "WA");
  std::vector<SweepRow> sweep;
  for (const char* spec : {"disk", "ssd"}) {
    const SweepRow& row = sweep.emplace_back(RunSweepConfig(spec));
    std::printf("%-6s %8.4f%% %9llu %10llu %14.1f %7llu %6.2f\n",
                row.device.c_str(), 100.0 * row.hit_rate,
                static_cast<unsigned long long>(row.misses),
                static_cast<unsigned long long>(row.evictions),
                row.device_time_ms,
                static_cast<unsigned long long>(row.erases),
                row.write_amplification);
  }

  std::printf("\n%-17s %12s %12s %12s  (events/sec over %d rounds)\n",
              "probe", "median", "min", "max", kRounds);
  std::vector<bench::Spread> spreads;
  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"hotpath\",\n";
  json << "  \"fast_mode\": " << (bench::FastMode() ? "true" : "false")
       << ",\n  \"rounds\": " << kRounds << ",\n  \"probes\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    // Sorted by rate, the middle run (kRounds is odd) is the median one; it
    // supplies the wall time, the memory mark and the phases.
    std::sort(runs[i].begin(), runs[i].end(),
              [](const ProbeResult& a, const ProbeResult& b) {
                return a.events_per_sec < b.events_per_sec;
              });
    const ProbeResult& p = runs[i][kRounds / 2];
    spreads.push_back({p.events_per_sec, runs[i].front().events_per_sec,
                       runs[i].back().events_per_sec});
    const bench::Spread& spread = spreads.back();
    std::printf("%-17s %12.0f %12.0f %12.0f\n", p.name.c_str(), spread.median,
                spread.min, spread.max);
    json << "    {\n      \"name\": \"" << p.name << "\",\n";
    json << "      \"events\": " << p.events << ",\n";
    json << "      \"wall_seconds\": " << p.wall_seconds << ",\n      ";
    bench::WriteSpread(json, "events_per_sec", spread);
    json << ",\n      \"max_rss_kb\": " << p.max_rss_kb << ",\n";
    json << "      \"wall_phases_ns\": {";
    bool first = true;
    for (const MetricSample& sample : p.wall_phases) {
      if (sample.total() == 0) continue;
      if (!first) json << ", ";
      first = false;
      json << "\"" << sample.name << "\": " << sample.total();
    }
    json << "}\n    }" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"io_sweep\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepRow& row = sweep[i];
    json << "    {\"policy\": \"lru\", \"device\": \"" << row.device
         << "\", \"hit_rate\": " << row.hit_rate << ", \"hits\": " << row.hits
         << ", \"misses\": " << row.misses
         << ", \"evictions\": " << row.evictions
         << ", \"device_writes\": " << row.device_writes
         << ", \"estimated_device_time_ms\": " << row.device_time_ms
         << ", \"erases\": " << row.erases
         << ", \"write_amplification\": " << row.write_amplification << "}"
         << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  // The whole run's heap high-water mark (KiB): memory wins and
  // regressions show up here alongside the throughput numbers.
  json << "  ],\n  \"max_rss_kb\": " << MaxRssKb() << "\n}\n";
  json.close();
  std::printf("\nWrote %s\n", json_path);

  if (baseline_path != nullptr) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "cannot open baseline %s\n", baseline_path);
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();

    bool ok = true;
    for (size_t i = 0; i < runs.size(); ++i) {
      const std::string& name = runs[i].front().name;
      const double baseline = BaselineEventsPerSec(text, name);
      if (baseline <= 0) continue;  // Probe not covered by the baseline.
      const double floor = baseline * 0.8;  // >20% regression fails.
      const double median = spreads[i].median;
      const bool pass = median >= floor;
      std::printf("check %-17s %12.0f ev/s vs floor %12.0f (baseline %.0f) "
                  "%s\n", name.c_str(), median, floor, baseline,
                  pass ? "OK" : "REGRESSION");
      ok = ok && pass;
    }
    if (!ok) return 1;
  }
  return json.good() ? 0 : 1;
}
