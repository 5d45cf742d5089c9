// Database evolution inspector: runs the paper's workload at small scale
// and periodically prints a per-partition map of live data vs garbage —
// the view a DBA (or a partition selection policy) wishes it had. The
// final frames show compaction at work: collected partitions drain and
// refill while NoCollection-style growth would just add partitions.
//
// Run:  ./build/examples/db_evolution

#include <cstdio>
#include <string>

#include "core/reachability.h"
#include "sim/config.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace {

using namespace odbgc;

void PrintPartitionMap(const CollectedHeap& heap, uint64_t events) {
  const ObjectStore& store = heap.store();
  const GarbageCensus census = ComputeGarbageCensus(store);
  std::printf("after %8llu events: %zu partitions, %llu KB live, %llu KB "
              "garbage, %llu collections\n",
              static_cast<unsigned long long>(events),
              store.partition_count(),
              static_cast<unsigned long long>(census.total_live_bytes / 1024),
              static_cast<unsigned long long>(census.total_garbage_bytes /
                                              1024),
              static_cast<unsigned long long>(heap.stats().collections));
  for (size_t pid = 0; pid < store.partition_count(); ++pid) {
    const Partition& partition = store.partition(pid);
    const double capacity = partition.capacity_bytes();
    const double garbage = static_cast<double>(
        census.garbage_bytes_per_partition[pid]);
    const double allocated = partition.allocated_bytes();
    const double live = allocated - garbage;

    // 32-character bar: '#' live, 'x' garbage, '.' free.
    constexpr int kWidth = 32;
    const int live_cells = static_cast<int>(live / capacity * kWidth + 0.5);
    const int garbage_cells =
        static_cast<int>(garbage / capacity * kWidth + 0.5);
    std::string bar(kWidth, '.');
    for (int i = 0; i < live_cells && i < kWidth; ++i) bar[i] = '#';
    for (int i = live_cells; i < live_cells + garbage_cells && i < kWidth;
         ++i) {
      bar[i] = 'x';
    }
    std::printf("  partition %2zu [%s]%s\n", pid, bar.c_str(),
                pid == store.empty_partition() ? "  <- empty (copy target)"
                                               : "");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  SimulationConfig config = PaperBaseConfig();
  config.workload = config.workload.WithTotalAllocation(2200ull << 10);
  config.heap.store.pages_per_partition = 16;
  config.heap.buffer_pages = 16;
  config.heap.overwrite_trigger = 100;
  config.heap.policy_name = "UpdatedPointer";

  Simulator simulator(config);
  WorkloadGenerator generator(config.workload, config.seed);

  if (Status s = generator.BuildInitialDatabase(&simulator); !s.ok()) {
    std::fprintf(stderr, "build failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("=== initial database built ===\n");
  PrintPartitionMap(simulator.heap(), simulator.events_applied());

  uint64_t next_frame = simulator.events_applied() + 150000;
  while (!generator.Done()) {
    if (Status s = generator.RunRound(&simulator); !s.ok()) {
      std::fprintf(stderr, "round failed: %s\n", s.ToString().c_str());
      return 1;
    }
    if (simulator.events_applied() >= next_frame) {
      PrintPartitionMap(simulator.heap(), simulator.events_applied());
      next_frame += 150000;
    }
  }

  std::printf("=== final state ===\n");
  PrintPartitionMap(simulator.heap(), simulator.events_applied());
  const SimulationResult result = simulator.Finish();
  std::printf("legend: '#' live, 'x' garbage, '.' free\n");
  std::printf("totals: %llu app I/Os, %llu collector I/Os, %llu KB "
              "reclaimed across %llu collections\n",
              static_cast<unsigned long long>(result.app_io),
              static_cast<unsigned long long>(result.gc_io),
              static_cast<unsigned long long>(
                  result.garbage_reclaimed_bytes / 1024),
              static_cast<unsigned long long>(result.collections));
  return 0;
}
