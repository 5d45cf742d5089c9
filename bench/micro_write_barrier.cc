// Microbenchmarks (google-benchmark) for the write-barrier machinery the
// paper argues is cheap: remembered-set maintenance, policy counter
// updates, and (for WeightedPointer) weight relaxation. These are the
// per-pointer-store CPU costs that Section 3.1's cost discussion compares.

#include <benchmark/benchmark.h>

#include "core/policies.h"
#include "storage/disk.h"
#include "core/remembered_set.h"
#include "core/weights.h"
#include "util/random.h"

namespace odbgc {
namespace {

void BM_RememberedSetAddRemove(benchmark::State& state) {
  InterPartitionIndex index;
  Rng rng(1);
  uint64_t next = 1;
  for (auto _ : state) {
    const ObjectId source{next++};
    const ObjectId target{next++};
    const PartitionId sp = static_cast<PartitionId>(rng.UniformInt(16));
    PartitionId tp = static_cast<PartitionId>(rng.UniformInt(16));
    if (tp == sp) tp = (tp + 1) % 16;
    index.AddReference(source, sp, 0, target, tp);
    index.RemoveReference(source, 0, target);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RememberedSetAddRemove);

void BM_RememberedSetLookupTargets(benchmark::State& state) {
  InterPartitionIndex index;
  Rng rng(2);
  for (uint64_t i = 0; i < 10000; ++i) {
    const PartitionId sp = static_cast<PartitionId>(rng.UniformInt(16));
    PartitionId tp = static_cast<PartitionId>(rng.UniformInt(16));
    if (tp == sp) tp = (tp + 1) % 16;
    index.AddReference(ObjectId{2 * i + 1}, sp, 0, ObjectId{2 * i + 2}, tp);
  }
  for (auto _ : state) {
    const PartitionId p = static_cast<PartitionId>(rng.UniformInt(16));
    benchmark::DoNotOptimize(index.ExternalTargets(p));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RememberedSetLookupTargets);

void BM_UpdatedPointerBarrier(benchmark::State& state) {
  UpdatedPointerPolicy policy;
  Rng rng(3);
  SlotWriteEvent event;
  event.source = ObjectId{1};
  event.old_target = ObjectId{2};
  for (auto _ : state) {
    event.source_partition = static_cast<PartitionId>(rng.UniformInt(16));
    event.old_target_partition =
        static_cast<PartitionId>(rng.UniformInt(16));
    policy.OnPointerStore(event, 16);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UpdatedPointerBarrier);

void BM_WeightedPointerBarrier(benchmark::State& state) {
  WeightedPointerPolicy policy;
  Rng rng(4);
  SlotWriteEvent event;
  event.source = ObjectId{1};
  event.old_target = ObjectId{2};
  for (auto _ : state) {
    event.old_target_partition =
        static_cast<PartitionId>(rng.UniformInt(16));
    policy.OnPointerStore(
        event, static_cast<uint8_t>(1 + rng.UniformInt(16)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WeightedPointerBarrier);

// Weight relaxation over a chain of the given depth: the transitive
// propagation cost the paper charges WeightedPointer for.
void BM_WeightRelaxationChain(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  SimulatedDisk disk(8192);
  BufferPool buffer(&disk, 256);
  StoreOptions options;
  options.pages_per_partition = 64;
  ObjectStore store(options, &disk, &buffer);
  WeightTracker weights(&store, /*charge_io=*/false);

  std::vector<ObjectId> chain;
  for (int i = 0; i < depth; ++i) {
    auto id = store.Allocate(100, 2);
    chain.push_back(*id);
    if (i > 0) (void)store.WriteSlot(chain[i - 1], 0, chain[i]);
  }
  for (auto _ : state) {
    state.PauseTiming();
    WeightTracker fresh(&store, false);
    for (int i = 0; i + 1 < depth; ++i) {
      (void)fresh.OnPointerStored(chain[i], chain[i + 1]);
    }
    state.ResumeTiming();
    // Rooting the head relaxes the whole chain transitively.
    benchmark::DoNotOptimize(fresh.OnRootAdded(chain[0]));
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_WeightRelaxationChain)->Arg(4)->Arg(16)->Arg(64);

}  // namespace
}  // namespace odbgc

BENCHMARK_MAIN();
