#ifndef ODBGC_CORE_PARTITION_COUNTERS_H_
#define ODBGC_CORE_PARTITION_COUNTERS_H_

#include <cstdint>
#include <type_traits>
#include <vector>

#include "odb/object_id.h"

namespace odbgc {

/// Dense per-partition accumulator for selection-policy hints. Partition
/// ids are small and dense (the store's directory index), so a flat
/// vector indexed by PartitionId replaces the hint unordered_maps on the
/// write-barrier hot path: bumping a counter is one indexed add, no
/// hashing. The zero value doubles as "absent" — collection resets a
/// partition's entry to zero, which is exactly the old map's erase, since
/// live hint values are always positive.
template <typename V>
class PartitionCounterTable {
  static_assert(std::is_same_v<V, uint64_t> || std::is_same_v<V, double>,
                "hint counters are uint64_t or double");

 public:
  V Get(PartitionId partition) const {
    return partition < values_.size() ? values_[partition] : V{};
  }

  /// Mutable entry for `partition`, growing the table on demand (the
  /// directory only ever appends partitions).
  V& At(PartitionId partition) {
    if (partition >= values_.size()) values_.resize(partition + 1, V{});
    return values_[partition];
  }

  /// The "dirty-list reset": a collected partition's hints start over.
  void Reset(PartitionId partition) {
    if (partition < values_.size()) values_[partition] = V{};
  }

  void Clear() { values_.clear(); }

 private:
  std::vector<V> values_;
};

}  // namespace odbgc

#endif  // ODBGC_CORE_PARTITION_COUNTERS_H_
