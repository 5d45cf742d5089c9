#ifndef ODBGC_CORE_REACHABILITY_H_
#define ODBGC_CORE_REACHABILITY_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "odb/object_id.h"
#include "odb/object_store.h"

namespace odbgc {

/// A whole-database garbage census: which bytes are live (transitively
/// reachable from the root set) and which are garbage, per partition.
///
/// This is simulator-omniscient information — the oracle behind the
/// MostGarbage policy, the "Actual Garbage" row of Table 4, and the
/// unreclaimed-garbage curves of Figure 4. It walks the store's shadow
/// object graph, so it costs no simulated I/O and does not perturb the
/// experiment.
struct GarbageCensus {
  /// Garbage bytes in each partition, indexed by partition id.
  std::vector<uint64_t> garbage_bytes_per_partition;
  /// Garbage object count per partition.
  std::vector<uint64_t> garbage_objects_per_partition;
  /// Garbage bytes a collection of the partition would reclaim *right
  /// now*: excludes garbage protected by remembered-set entries from dead
  /// objects in other partitions (nepotism) and everything such kept
  /// objects reach within the partition. This is what the MostGarbage
  /// oracle ranks partitions by — ranking by raw garbage would repeatedly
  /// select partitions whose garbage cannot yet be reclaimed.
  std::vector<uint64_t> collectable_bytes_per_partition;
  uint64_t total_garbage_bytes = 0;
  uint64_t total_garbage_objects = 0;
  uint64_t total_collectable_bytes = 0;
  uint64_t total_live_bytes = 0;
  uint64_t total_live_objects = 0;
};

/// Classifies the *garbage* of a census by why a partition-local collector
/// would or would not find it, quantifying the paper's Section 6.5
/// observations (nepotism and distributed cyclic garbage).
struct GarbageAnatomy {
  /// Garbage objects with no remaining references from other partitions'
  /// objects (live or dead): a collection of their partition reclaims
  /// them immediately.
  uint64_t locally_collectable_bytes = 0;
  /// Garbage kept "live" by pointers from *dead* objects in other
  /// partitions (nepotism): reclaimable only after the referencing
  /// partition is collected first.
  uint64_t nepotism_bytes = 0;
  /// Garbage on inter-partition cycles of dead objects: no ordering of
  /// single-partition collections reclaims it (the paper's "distributed
  /// cyclic garbage").
  uint64_t cross_partition_cycle_bytes = 0;
};

/// The shared marking core behind every whole-database reachability
/// question — the simulator's single hottest path (the MostGarbage oracle
/// runs a census per collection trigger; Figure 4 runs one per snapshot).
///
/// Instead of a fresh unordered_set per census, liveness is an
/// *epoch-stamped dense mark vector* indexed by ObjectId value (ids are
/// sequential and never reused, so the id doubles as a slot in a flat
/// array): one uint32_t per id, "marked" means stamp == current epoch,
/// and un-marking the whole database is a single epoch increment. After
/// the first census of a run, marking allocates nothing and never
/// rehashes; the traversal worklist and all census scratch buffers are
/// reused across calls.
///
/// The analyzer is measurement machinery only — it reads the shadow
/// object graph, charges no simulated I/O and holds no simulation state,
/// so it is deliberately *not* part of any checkpoint. All results are
/// bit-identical to the original set-based implementation (every output
/// is an order-independent sum over the same live/dead classification);
/// tests/core/census_equivalence_test.cc pins that equivalence against a
/// reference implementation.
class ReachabilityAnalyzer {
 public:
  ReachabilityAnalyzer() = default;

  ReachabilityAnalyzer(const ReachabilityAnalyzer&) = delete;
  ReachabilityAnalyzer& operator=(const ReachabilityAnalyzer&) = delete;

  /// Full census into caller-owned storage (vectors are reused when
  /// already sized). One reachability pass over the shadow graph.
  void CensusInto(const ObjectStore& store, GarbageCensus* census);

  /// Full census (one reachability pass), by value.
  GarbageCensus Census(const ObjectStore& store);

  /// Garbage anatomy for the current store contents. The
  /// cross-partition-cycle component is found via SCCs of the dead
  /// subgraph: a dead cycle spanning partitions keeps itself registered
  /// in remembered sets forever.
  GarbageAnatomy Anatomy(const ObjectStore& store);

  /// Marks the set of objects reachable from the store's roots; afterward
  /// IsLive() answers for any id issued by the store. Exposed for callers
  /// that need only liveness (equivalence tests, tools).
  void MarkLiveSet(const ObjectStore& store);

  /// True iff `id` was marked by the most recent MarkLiveSet/Census/
  /// Anatomy call on this analyzer.
  bool IsLive(ObjectId id) const {
    return id.value < live_stamp_.size() && live_stamp_[id.value] == epoch_;
  }

 private:
  // One dead object, in partition-roster order (the census iteration
  // order, kept for deterministic replay of the reference algorithm).
  struct DeadObject {
    ObjectId id;
    PartitionId partition;
    uint32_t size;
  };

  // Starts a new mark generation covering ids < store.id_limit():
  // increments the epoch and grows the stamp arrays (handling the
  // ~4-billion-census wraparound by clearing).
  void BeginEpoch(const ObjectStore& store);

  // Aux-stamps `id` (the per-census scratch set: census "kept" marks,
  // anatomy dead-graph indices). Returns false if already stamped.
  bool AuxMark(ObjectId id) {
    uint32_t& stamp = aux_stamp_[id.value];
    if (stamp == epoch_) return false;
    stamp = epoch_;
    return true;
  }
  bool AuxMarked(ObjectId id) const {
    return aux_stamp_[id.value] == epoch_;
  }

  // Current mark generation; 0 is reserved as "never marked".
  uint32_t epoch_ = 0;
  // stamp == epoch_  <=>  marked in the current generation.
  std::vector<uint32_t> live_stamp_;
  std::vector<uint32_t> aux_stamp_;
  // Aux payload: for anatomy, the dead-graph index of an aux-marked id.
  std::vector<uint32_t> aux_value_;

  // Reusable traversal worklist (explicit stack — order is irrelevant to
  // every consumer, all outputs being order-independent sums).
  std::vector<ObjectId> worklist_;
  // Census scratch: the dead objects of the current census, roster order.
  std::vector<DeadObject> dead_;
};

/// Ids of all objects reachable from the root set.
///
/// Note for hot paths: prefer ReachabilityAnalyzer, which marks without
/// building a set. This remains for callers that need a materialized set
/// for membership tests: the global collector, and the tests that check
/// the analyzer against it. The set's iteration order is unspecified, so
/// no caller may let it decide anything observable.
std::unordered_set<ObjectId> ComputeLiveSet(const ObjectStore& store);

/// Full census (one reachability pass). Convenience wrapper constructing
/// a transient ReachabilityAnalyzer; repeated callers should hold an
/// analyzer and amortize its buffers.
GarbageCensus ComputeGarbageCensus(const ObjectStore& store);

/// Computes the anatomy given the current store contents (see
/// ReachabilityAnalyzer::Anatomy).
GarbageAnatomy ComputeGarbageAnatomy(const ObjectStore& store);

}  // namespace odbgc

#endif  // ODBGC_CORE_REACHABILITY_H_
