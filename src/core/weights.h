#ifndef ODBGC_CORE_WEIGHTS_H_
#define ODBGC_CORE_WEIGHTS_H_

#include <cstdint>
#include <vector>

#include "odb/object_id.h"
#include "odb/object_store.h"
#include "util/status.h"

namespace odbgc {

/// Maintains the WeightedPointer policy's per-object root-distance weights
/// (paper, Section 3.1): a root object has weight 1, and every other
/// object's weight is one plus the minimum weight among the objects
/// pointing to it, clamped to kMaxWeight. The weight approximates distance
/// from the database roots; overwriting a pointer to a low-weight (near-
/// root) object is a hint that a large subtree may have died.
///
/// Maintenance matches the paper's description: when a pointer is stored,
/// the target's weight is lowered to source+1 if that is smaller, and the
/// decrease is propagated transitively through the target's out-pointers.
/// Weight *increases* (when the cheapest in-edge disappears) are not
/// tracked — the paper maintains weights the same one-sided way, which is
/// part of why WeightedPointer is only a heuristic.
///
/// Cost model: weights are conceptually 4 bits in each object's header, so
/// every weight change rewrites the header's page (charged through the
/// store); weight *reads* come from this in-memory mirror free of charge,
/// mirroring the paper's in-memory auxiliary tables.
class WeightTracker {
 public:
  static constexpr uint8_t kMaxWeight = 16;
  static constexpr uint8_t kRootWeight = 1;

  /// `store` must outlive the tracker. If `charge_io` is true, weight
  /// updates rewrite object headers via the store (the faithful cost);
  /// tests may disable charging.
  explicit WeightTracker(ObjectStore* store, bool charge_io = true)
      : store_(store), charge_io_(charge_io) {}

  /// Weight of `object`; kMaxWeight for unknown/new objects.
  uint8_t GetWeight(ObjectId object) const {
    return object.value < weights_.size() ? weights_[object.value]
                                          : kMaxWeight;
  }

  /// Marks `object` as a root (weight 1) and propagates the decrease.
  Status OnRootAdded(ObjectId object);

  /// Relaxes `target` via a newly stored pointer from `source`, and
  /// propagates any decrease transitively through shadow slots.
  Status OnPointerStored(ObjectId source, ObjectId target);

  /// Forgets a reclaimed object.
  void OnObjectDied(ObjectId object) {
    if (object.value < weights_.size() &&
        weights_[object.value] != kMaxWeight) {
      weights_[object.value] = kMaxWeight;
      --tracked_;
    }
  }

  size_t tracked_count() const { return tracked_; }

 private:
  // Sets object's weight to `w` if lower, charging a header write, and
  // propagates breadth-first.
  Status Relax(ObjectId object, uint8_t w);

  // Stores `w` (< kMaxWeight) for `object`, growing the table to the
  // store's id limit on demand and maintaining tracked_.
  void SetWeight(ObjectId object, uint8_t w);

  ObjectStore* const store_;
  const bool charge_io_;
  // Dense weight table indexed by object id. Relax only ever stores
  // weights below kMaxWeight, so kMaxWeight doubles as "untracked" — a
  // byte per ever-issued id replaces a node-based map on the pointer-
  // store hot path. Ids at or beyond the vector's size are untracked.
  std::vector<uint8_t> weights_;
  size_t tracked_ = 0;
};

}  // namespace odbgc

#endif  // ODBGC_CORE_WEIGHTS_H_
