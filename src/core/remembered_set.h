#ifndef ODBGC_CORE_REMEMBERED_SET_H_
#define ODBGC_CORE_REMEMBERED_SET_H_

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "odb/object_id.h"
#include "odb/object_store.h"
#include "util/flat_set.h"
#include "util/inline_vector.h"

namespace odbgc {

/// A pointer field: slot `slot` of object `source`.
struct PointerLocation {
  ObjectId source;
  uint32_t slot = 0;

  friend bool operator==(const PointerLocation& a, const PointerLocation& b) {
    return a.source == b.source && a.slot == b.slot;
  }
  friend bool operator<(const PointerLocation& a, const PointerLocation& b) {
    if (!(a.source == b.source)) return a.source < b.source;
    return a.slot < b.slot;
  }
};

/// External pointer locations referencing one target. Inline capacity 2:
/// most externally referenced objects have one or two referents.
using PointerLocationList = InlineVector<PointerLocation, 2>;

/// Out-of-partition pointers of one source, as (slot, target) pairs.
/// Inline capacity 2: the common out-pointer list is one or two entries
/// (the workload's dense-edge rate is ~0.08 per object).
using OutPointerList = InlineVector<std::pair<uint32_t, ObjectId>, 2>;

/// Tracks every inter-partition pointer in the database — the paper's two
/// auxiliary structures rolled into one consistent index:
///
///  - the *remembered set* of partition T: all pointer locations whose
///    target lives in T but whose source lives elsewhere (these act as
///    roots when T is collected), and
///  - the *out-of-partition set* of partition F: all objects in F holding
///    pointers out of F (needed so that when such an object dies, its
///    entries can be removed from the remembered sets it contributed to —
///    otherwise later collections would unnecessarily preserve objects
///    pointed to only by garbage).
///
/// Only inter-partition pointers are indexed; intra-partition pointers are
/// found by the collector's traversal. Because slots store stable
/// ObjectIds, relocation only re-buckets entries between partitions; the
/// entries themselves never go stale.
///
/// The index lives in primary memory (the paper maintains these structures
/// as in-memory auxiliaries) and is never charged I/O.
///
/// Layout (this is the write barrier's hot path — every pointer store
/// lands here):
///  - per-object records carry their entry list in a small inline buffer
///    plus the partition the object currently occupies, so removal and
///    re-bucketing need no search over partitions;
///  - per-partition membership sets are flat sorted vectors (FlatSet)
///    indexed by partition id, replacing unordered_map<id, std::set> —
///    the collector reads them as contiguous, already-sorted spans.
class InterPartitionIndex {
 public:
  InterPartitionIndex() = default;

  /// Records inter-partition pointer (source.slot -> target). Requires
  /// source_partition != target_partition; call only for such pointers.
  void AddReference(ObjectId source, PartitionId source_partition,
                    uint32_t slot, ObjectId target,
                    PartitionId target_partition);

  /// Removes the record for (source.slot -> target); no-op if absent.
  void RemoveReference(ObjectId source, uint32_t slot, ObjectId target);

  /// Brings `victim`'s remembered set and out-set up to date after its
  /// residents were evacuated into the empty partition `target`, in one
  /// pass over those members (never over the residents). `partition_of`
  /// names the partition an object occupies now, or kInvalidPartition
  /// once it was dropped. A moved member's records follow it to `target`.
  /// A dropped member's out-pointers leave the remembered sets they fed,
  /// so later collections do not preserve what only this garbage
  /// referenced; a dropped member may not itself be externally referenced
  /// (a partition-local collection treats those as live). A member still
  /// in `victim`, left by an evacuation that failed part-way, stays.
  void OnPartitionEvacuated(
      PartitionId victim, PartitionId target,
      const std::function<PartitionId(ObjectId)>& partition_of);

  /// Erases all entries contributed by `source`'s out-pointers without
  /// requiring `source` to be unreferenced. The global collector retires a
  /// whole dead set at once: it first strips every dead object's
  /// out-pointers (after which no dead object has external references,
  /// since live objects cannot point at garbage), then drops the bodies.
  void RemoveOutPointersOf(ObjectId source, PartitionId partition);

  /// Remembered set of `partition`: ids of objects in `partition` that
  /// have at least one external reference, in ascending id order
  /// (deterministic collection roots). Zero-copy view into the index;
  /// valid until the next mutation (a copy traversal makes none).
  std::span<const ObjectId> ExternalTargets(PartitionId partition) const;

  /// All pointer locations referencing `target` from other partitions;
  /// nullptr if none.
  const PointerLocationList* EntriesForTarget(ObjectId target) const;

  bool HasExternalReferences(ObjectId target) const;

  /// Out-of-partition set of `partition`: ids of objects in `partition`
  /// holding at least one pointer out of it, ascending order. Zero-copy
  /// view with the same validity rule as ExternalTargets.
  std::span<const ObjectId> Sources(PartitionId partition) const;

  /// Out-pointers of `source` (slot, target) pairs; nullptr if none.
  const OutPointerList* OutPointersOfSource(ObjectId source) const;

  /// Total number of inter-partition pointer entries.
  size_t entry_count() const { return entry_count_; }

  /// Number of remembered-set entries into `partition` (size of its
  /// remembered set in pointers, not targets).
  size_t EntryCountForPartition(PartitionId partition) const;

 private:
  // An object's role as a target of external references: the referencing
  // locations plus the partition the object currently occupies (so erase
  // and re-bucket know which membership set to touch without searching).
  struct TargetRecord {
    PointerLocationList locations;
    PartitionId partition = kInvalidPartition;
  };
  // An object's role as a holder of out-of-partition pointers.
  struct SourceRecord {
    OutPointerList out_pointers;
    PartitionId partition = kInvalidPartition;
  };

  // Grows the per-partition set directories to cover `partition`.
  void EnsurePartition(PartitionId partition);

  // target -> external pointer locations referencing it (+ its partition).
  std::unordered_map<ObjectId, TargetRecord> entries_by_target_;
  // source -> its out-pointers (slot, target) (+ its partition).
  std::unordered_map<ObjectId, SourceRecord> out_pointers_by_source_;
  // Indexed by partition id: ids of externally referenced objects living
  // there / ids of out-pointer-holding objects living there.
  std::vector<FlatSet<ObjectId>> targets_in_partition_;
  std::vector<FlatSet<ObjectId>> sources_in_partition_;

  size_t entry_count_ = 0;
};

}  // namespace odbgc

#endif  // ODBGC_CORE_REMEMBERED_SET_H_
