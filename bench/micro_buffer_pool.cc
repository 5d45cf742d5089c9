// Microbenchmarks (google-benchmark) for the simulated I/O substrate:
// buffer pool hit, miss and dirty-eviction paths, and the object store's
// slot-write path (the hottest operation in a trace replay).
//
// Passing a file name (an argument that does not start with '-')
// additionally runs the I/O-subsystem sweep — the LRU pool over every
// device backend on one fixed access trace — and writes the hit rates,
// evictions and estimated device times to that file (CI uploads it as
// BENCH_io.json):
//
//   ./build/bench/micro_buffer_pool BENCH_io.json [benchmark flags...]

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "buffer/buffer_pool.h"
#include "storage/disk.h"
#include "storage/page_device.h"
#include "storage/ssd_device.h"
#include "odb/object_store.h"
#include "util/random.h"

namespace odbgc {
namespace {

void BM_BufferPoolHit(benchmark::State& state) {
  SimulatedDisk disk(8192);
  disk.AllocatePages(8);
  BufferPool pool(&disk, 16);
  (void)pool.GetPage(0, AccessMode::kRead);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.GetPage(0, AccessMode::kRead));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferPoolHit);

void BM_BufferPoolMissCleanEvict(benchmark::State& state) {
  SimulatedDisk disk(8192);
  disk.AllocatePages(1024);
  BufferPool pool(&disk, 64);
  PageId next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.GetPage(next, AccessMode::kRead));
    next = (next + 1) % 1024;  // Always past the 64-frame pool: all misses.
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_BufferPoolMissCleanEvict);

void BM_BufferPoolMissDirtyEvict(benchmark::State& state) {
  SimulatedDisk disk(8192);
  disk.AllocatePages(1024);
  BufferPool pool(&disk, 64);
  PageId next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.GetPage(next, AccessMode::kWrite));
    next = (next + 1) % 1024;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * 2 * 8192);  // Read + write.
}
BENCHMARK(BM_BufferPoolMissDirtyEvict);

void BM_StoreSlotWrite(benchmark::State& state) {
  SimulatedDisk disk(8192);
  BufferPool buffer(&disk, 256);
  StoreOptions options;
  options.pages_per_partition = 48;
  ObjectStore store(options, &disk, &buffer);
  std::vector<ObjectId> ids;
  for (int i = 0; i < 1000; ++i) ids.push_back(*store.Allocate(100, 3));
  Rng rng(7);
  for (auto _ : state) {
    const ObjectId source = ids[rng.UniformInt(ids.size())];
    const ObjectId target = ids[rng.UniformInt(ids.size())];
    benchmark::DoNotOptimize(
        store.WriteSlot(source, rng.UniformInt(3), target));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreSlotWrite);

void BM_StoreVisitObject(benchmark::State& state) {
  SimulatedDisk disk(8192);
  BufferPool buffer(&disk, 48);
  StoreOptions options;
  options.pages_per_partition = 48;
  ObjectStore store(options, &disk, &buffer);
  std::vector<ObjectId> ids;
  for (int i = 0; i < 5000; ++i) ids.push_back(*store.Allocate(100, 3));
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.VisitObject(ids[rng.UniformInt(ids.size())]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreVisitObject);

// ---------------------------------------------------------------------------
// I/O-subsystem sweep: the LRU pool over each device backend on one fixed
// trace, reported as BENCH_io.json.

struct SweepRow {
  const char* device;
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

SweepRow RunSweepConfig(DeviceKind device) {
  constexpr size_t kPageSize = 4096;
  constexpr size_t kPages = 512;
  constexpr size_t kFrames = 64;
  constexpr int kSteps = 200000;
  constexpr size_t kHotSet = 48;  // Fits the pool; scans evict it under LRU.

  std::unique_ptr<PageDevice> dev = MakePageDevice(
      device, kPageSize, nullptr, DiskCostParams{}, SsdCostParams{});
  dev->AllocatePages(kPages);
  BufferPool pool(dev.get(), kFrames);

  // The trace mixes a hot working set, uniform cold traffic and periodic
  // sequential sweeps (a collector scanning partitions).
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
    if (!frame.ok()) {
      std::fprintf(stderr, "sweep GetPage failed: %s\n",
                   frame.status().ToString().c_str());
      std::exit(1);
    }
    if (mode == AccessMode::kWrite) {
      (*frame)[0] = static_cast<std::byte>(step);
    }
  }

  SweepRow row;
  row.device = DeviceKindName(device);
  const BufferStats stats = pool.stats();
  row.hits = stats.hits;
  row.misses = stats.misses;
  row.hit_rate = static_cast<double>(stats.hits) /
                 static_cast<double>(stats.hits + stats.misses);
  row.evictions = stats.misses - pool.resident_pages();
  row.device_writes = dev->stats().page_writes;
  row.device_time_ms = dev->EstimateTimeMs();
  if (auto* ssd = dynamic_cast<SsdDevice*>(dev.get())) {
    row.erases = ssd->erases();
    row.write_amplification = ssd->WriteAmplification();
  }
  return row;
}

int RunIoSweep(const char* json_path) {
  const DeviceKind devices[] = {DeviceKind::kSimulatedDisk, DeviceKind::kSsd};

  std::vector<SweepRow> rows;
  std::printf("I/O sweep: lru x %zu devices, fixed trace\n\n",
              std::size(devices));
  std::printf("%-6s %-15s %10s %9s %10s %14s %7s %6s\n", "policy", "device",
              "hit_rate", "misses", "evictions", "device_ms", "erases", "WA");
  for (DeviceKind device : devices) {
    const SweepRow row = RunSweepConfig(device);
    std::printf("%-6s %-15s %9.4f%% %9llu %10llu %14.1f %7llu %6.2f\n",
                "lru", row.device, 100.0 * row.hit_rate,
                static_cast<unsigned long long>(row.misses),
                static_cast<unsigned long long>(row.evictions),
                row.device_time_ms,
                static_cast<unsigned long long>(row.erases),
                row.write_amplification);
    rows.push_back(row);
  }

  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"io\",\n  \"configs\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& row = rows[i];
    json << "    {\"policy\": \"lru\", \"device\": \""
         << row.device << "\", \"hit_rate\": " << row.hit_rate
         << ", \"hits\": " << row.hits << ", \"misses\": " << row.misses
         << ", \"evictions\": " << row.evictions
         << ", \"device_writes\": " << row.device_writes
         << ", \"estimated_device_time_ms\": " << row.device_time_ms
         << ", \"erases\": " << row.erases
         << ", \"write_amplification\": " << row.write_amplification << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  json.close();
  std::printf("\nwrote %s\n", json_path);
  return json.good() ? 0 : 1;
}

}  // namespace
}  // namespace odbgc

// BENCHMARK_MAIN, plus the JSON sweep when a file name is given (stripped
// before google-benchmark sees the command line; every flag, such as
// --benchmark_out=res.json, goes to google-benchmark).
int main(int argc, char** argv) {
  const char* json_path = nullptr;
  std::vector<char*> bench_args;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && argv[i][0] != '-') {
      json_path = argv[i];
    } else {
      bench_args.push_back(argv[i]);
    }
  }
  if (json_path != nullptr) {
    if (int rc = odbgc::RunIoSweep(json_path); rc != 0) return rc;
  }
  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
