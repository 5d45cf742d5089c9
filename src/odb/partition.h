#ifndef ODBGC_ODB_PARTITION_H_
#define ODBGC_ODB_PARTITION_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "odb/object_id.h"
#include "storage/extent.h"
#include "storage/page.h"

namespace odbgc {

/// One entry of a partition's roster: the object resident at `offset`.
/// Named fields (not std::pair) so roster scans read as
/// `for (const auto& [offset, id] : partition.objects_by_offset())`.
struct PartitionResident {
  uint32_t offset = 0;
  ObjectId id = kNullObjectId;
};

/// Metadata for one physically contiguous partition of the database.
///
/// A partition is the unit of independent collection (the paper's GC
/// partition equals the database partition). Space within a partition is
/// bump-allocated; internal space is reclaimed only by copying collection,
/// which compacts the partition's live objects into the empty partition.
class Partition {
 public:
  using Roster = std::vector<PartitionResident>;

  Partition(PartitionId id, PageExtent extent, size_t page_size)
      : id_(id),
        extent_(extent),
        capacity_bytes_(static_cast<uint32_t>(extent.page_count * page_size)) {}

  PartitionId id() const { return id_; }
  const PageExtent& extent() const { return extent_; }
  uint32_t capacity_bytes() const { return capacity_bytes_; }

  /// Current bump pointer: bytes allocated since the partition was last
  /// (re)set. Includes garbage; only copying collection lowers it.
  uint32_t allocated_bytes() const { return alloc_offset_; }
  uint32_t free_bytes() const { return capacity_bytes_ - alloc_offset_; }
  bool empty() const { return live_count_ == 0; }
  size_t object_count() const { return live_count_; }

  /// Tries to bump-allocate `size` bytes; returns the byte offset within
  /// the partition, or false if it does not fit.
  bool TryAllocate(uint32_t size, uint32_t* offset) {
    if (size > free_bytes()) return false;
    *offset = alloc_offset_;
    alloc_offset_ += size;
    return true;
  }

  /// Registers an object placed at `offset` by TryAllocate (allocation or
  /// relocation). Bump allocation hands out ascending offsets, so the
  /// roster stays in offset order by appending.
  void AddObject(uint32_t offset, ObjectId id) {
    assert(!id.is_null());
    assert(roster_.empty() || offset > roster_.back().offset);
    roster_.push_back({offset, id});
    ++live_count_;
  }

  /// Notes in O(1) that a resident left (relocated away or dropped). Its
  /// roster entry stays, departed, until Reset or DropEntries removes it.
  void ReleaseObject() {
    assert(live_count_ > 0);
    --live_count_;
  }

  /// Removes the roster entries `departed` selects in one order-keeping
  /// pass, which must leave exactly the live residents listed.
  template <typename Pred>
  void DropEntries(Pred departed) {
    std::erase_if(roster_, departed);
    assert(roster_.size() == live_count_);
  }

  /// First roster entry with offset > `offset` (end() if none) — the
  /// card-scan entry point.
  Roster::const_iterator UpperBound(uint32_t offset) const {
    return std::upper_bound(
        roster_.begin(), roster_.end(), offset,
        [](uint32_t o, const PartitionResident& r) { return o < r.offset; });
  }

  /// Resets the partition to empty once no resident is left, clearing the
  /// roster of departed entries in one step.
  void Reset() {
    assert(live_count_ == 0);
    roster_.clear();
    alloc_offset_ = 0;
  }

  /// Objects placed here since the last Reset, in offset (= bump) order —
  /// the physical scan order, which keeps collection deterministic. An
  /// evacuation leaves the entries of residents that already left in
  /// place until it resets the partition; at every other time the roster
  /// lists exactly the partition's residents.
  const Roster& objects_by_offset() const { return roster_; }

 private:
  PartitionId id_;
  PageExtent extent_;
  uint32_t capacity_bytes_;
  uint32_t alloc_offset_ = 0;
  Roster roster_;
  size_t live_count_ = 0;
};

}  // namespace odbgc

#endif  // ODBGC_ODB_PARTITION_H_
