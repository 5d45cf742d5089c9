#ifndef ODBGC_CORE_COPYING_COLLECTOR_H_
#define ODBGC_CORE_COPYING_COLLECTOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/remembered_set.h"
#include "core/weights.h"
#include "odb/object_id.h"
#include "odb/object_store.h"
#include "util/status.h"

namespace odbgc {

/// Order in which a collection traverses and copies live objects. The
/// paper fixes breadth-first (it preserves the test database's placement
/// policy); depth-first is provided for the Table 1 ablation.
enum class TraversalOrder { kBreadthFirst, kDepthFirst };

/// Outcome of collecting one partition.
struct CollectionResult {
  PartitionId collected = kInvalidPartition;
  /// The partition the survivors were copied into (the former empty
  /// partition, which is now a normal partition; `collected` is the new
  /// empty partition).
  PartitionId copy_target = kInvalidPartition;
  uint64_t live_objects_copied = 0;
  uint64_t live_bytes_copied = 0;
  uint64_t garbage_objects_reclaimed = 0;
  uint64_t garbage_bytes_reclaimed = 0;
  /// Collector-phase disk page reads/writes attributable to this
  /// collection (deltas of the buffer pool's GC-phase counters).
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
};

/// After an evacuation of `victim` into `target` failed part-way, what was
/// copied sits in `target` and the rest in `victim`, so a pointer between
/// the two now crosses a partition boundary. Both its ends were in the
/// victim before, so the index holds none of these pointers yet: adds each
/// one whose source `indexed` accepts. Both collectors' failure paths call
/// it.
void IndexSplitEvacuation(const ObjectStore& store, InterPartitionIndex* index,
                          PartitionId victim, PartitionId target,
                          const std::function<bool(ObjectId)>& indexed);

/// The partitioned copying garbage collector (paper, Section 4.1).
///
/// Collecting partition P:
///  1. Roots of P = database roots residing in P, plus every object in P
///     with a remembered-set entry (referenced from another partition —
///     conservatively treated as live, which is where nepotism enters).
///  2. Live objects are copied into the reserved empty partition in
///     traversal order (breadth-first by default, Cheney-style: an
///     object's children are discovered from its already-copied image, so
///     scanning costs no extra I/O). Pointers leaving P are not traversed.
///  3. Objects remaining in P are garbage, found by one read of P's
///     roster, and dropped. One pass over P's index members then moves
///     the survivors' records to the copy target and deletes the
///     garbage's out-of-partition pointer entries from the other
///     partitions' remembered sets (so later collections don't preserve
///     objects referenced only by this garbage). No step searches per
///     object, so a collection costs what it copies.
///  4. P is reset and becomes the new reserved empty partition; the copy
///     target becomes an ordinary partition. Compaction of survivors has
///     eliminated P's internal fragmentation. A collection that fails
///     part-way instead leaves P holding what it did not copy
///     (ObjectStore::AbandonEvacuation).
///
/// All page traffic during a collection is charged to the collector phase.
class CopyingCollector {
 public:
  /// All pointers must outlive the collector. `weights` may be null when
  /// weights are not maintained.
  CopyingCollector(ObjectStore* store, BufferPool* buffer,
                   InterPartitionIndex* index, WeightTracker* weights,
                   TraversalOrder order = TraversalOrder::kBreadthFirst);

  /// Collects `victim`, which must not be the reserved empty partition.
  /// `extra_roots` are treated as additional roots (the heap passes the
  /// most recently allocated object, which the application may not have
  /// linked into the graph yet — collecting it mid-birth would corrupt
  /// the application's view).
  Result<CollectionResult> Collect(
      PartitionId victim, const std::vector<ObjectId>& extra_roots = {});

 private:
  // Starts a new "copied" mark generation (see copied_stamp_).
  void BeginCopyEpoch();

  // Copies the victim's survivors into `target` and drops its garbage.
  Status Evacuate(PartitionId victim, PartitionId target,
                  const std::vector<ObjectId>& extra_roots,
                  CollectionResult* result);

  ObjectStore* const store_;
  BufferPool* const buffer_;
  InterPartitionIndex* const index_;
  WeightTracker* const weights_;
  const TraversalOrder order_;

  // Per-collection scratch, reused across collections so the hot path
  // allocates only when a high-water mark grows. "Copied" is an
  // epoch-stamped dense mark vector indexed by ObjectId value (same
  // technique as ReachabilityAnalyzer); the worklist vector serves as a
  // FIFO via head cursor (breadth-first) or a stack (depth-first).
  uint32_t copy_epoch_ = 0;
  std::vector<uint32_t> copied_stamp_;
  std::vector<ObjectId> work_;
};

}  // namespace odbgc

#endif  // ODBGC_CORE_COPYING_COLLECTOR_H_
