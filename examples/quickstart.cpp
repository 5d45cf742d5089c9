// Quickstart: build a tiny partitioned object database, create garbage,
// and let the UpdatedPointer policy pick the partition to collect.
//
// Run:  ./build/examples/quickstart

#include <cstdio>
#include <cstdlib>

#include "core/heap.h"
#include "core/reachability.h"

namespace {

// Exit with a message on any unexpected error.
void Check(const odbgc::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T Must(odbgc::Result<T> result, const char* what) {
  Check(result.status(), what);
  return std::move(result).value();
}

}  // namespace

int main() {
  using namespace odbgc;

  // A small heap: 8 KB pages, 8-page partitions, buffer of one partition,
  // collecting with the paper's winning policy after every 16 pointer
  // overwrites.
  HeapOptions options;
  options.store.pages_per_partition = 8;
  options.buffer_pages = 8;
  options.policy_name = "UpdatedPointer";
  options.overwrite_trigger = 16;
  CollectedHeap heap(options);

  // Build a little linked structure: a root with a chain of children.
  const ObjectId root = Must(heap.Allocate(128, 4), "allocate root");
  Check(heap.AddRoot(root), "add root");

  ObjectId prev = root;
  for (int i = 0; i < 500; ++i) {
    const ObjectId node =
        Must(heap.Allocate(100, 2, /*parent_hint=*/prev), "allocate node");
    Check(heap.WriteSlot(prev, 0, node), "link node");
    prev = node;
  }
  std::printf("built a chain: %zu objects, %zu partitions, %llu KB on disk\n",
              heap.store().object_count(), heap.store().partition_count(),
              static_cast<unsigned long long>(heap.store().total_bytes() /
                                              1024));

  // Sever the chain near the root: everything below becomes garbage.
  const ObjectId second = Must(heap.ReadSlot(root, 0), "read first link");
  Check(heap.WriteSlot(root, 0, kNullObjectId), "cut the chain");
  (void)second;

  const GarbageCensus before = ComputeGarbageCensus(heap.store());
  std::printf("after the cut: %llu KB of garbage across the database\n",
              static_cast<unsigned long long>(before.total_garbage_bytes /
                                              1024));

  // Collect until the policy stops finding hinted partitions.
  while (true) {
    auto result = heap.CollectNow();
    if (!result.ok()) break;
    std::printf(
        "collected partition %u -> reclaimed %llu KB, copied %llu KB "
        "(%llu reads, %llu writes)\n",
        result->collected,
        static_cast<unsigned long long>(result->garbage_bytes_reclaimed /
                                        1024),
        static_cast<unsigned long long>(result->live_bytes_copied / 1024),
        static_cast<unsigned long long>(result->page_reads),
        static_cast<unsigned long long>(result->page_writes));
    if (result->garbage_bytes_reclaimed == 0 &&
        ComputeGarbageCensus(heap.store()).total_garbage_bytes == 0) {
      break;
    }
  }

  const GarbageCensus after = ComputeGarbageCensus(heap.store());
  std::printf(
      "final: %zu live objects, %llu KB garbage left, "
      "%llu app I/Os, %llu collector I/Os\n",
      heap.store().object_count(),
      static_cast<unsigned long long>(after.total_garbage_bytes / 1024),
      static_cast<unsigned long long>(heap.app_io()),
      static_cast<unsigned long long>(heap.gc_io()));
  return 0;
}
