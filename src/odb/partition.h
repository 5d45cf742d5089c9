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

  /// Registers an object residing at `offset` (allocation or relocation).
  /// Bump allocation makes appending past the current tail the common
  /// case; out-of-order registration drops dead entries, then falls back
  /// to a binary-search insert.
  void AddObject(uint32_t offset, ObjectId id) {
    assert(!id.is_null());
    ++live_count_;
    if (objects_by_offset_.empty() || offset > objects_by_offset_.back().offset) {
      objects_by_offset_.push_back({offset, id});
      return;
    }
    DropDead();
    objects_by_offset_.insert(LowerBound(offset), {offset, id});
  }

  /// Unregisters the object at `offset` (death or relocation away) in
  /// O(log n): the entry is marked dead (null id) where it stands, so
  /// evacuating a partition costs what it copies rather than a vector
  /// shift per resident. The last live resident's removal clears the
  /// roster outright.
  void RemoveObject(uint32_t offset) {
    auto it = LowerBound(offset);
    assert(it != objects_by_offset_.end() && it->offset == offset &&
           !it->id.is_null());
    if (--live_count_ == 0) {
      objects_by_offset_.clear();
      return;
    }
    it->id = kNullObjectId;
  }

  /// The object registered at exactly `offset`, or null if none. A dead
  /// entry's id is already null, so this reads without dropping them.
  ObjectId ObjectAt(uint32_t offset) const {
    auto it = LowerBound(offset);
    if (it == objects_by_offset_.end() || it->offset != offset) {
      return kNullObjectId;
    }
    return it->id;
  }

  /// First roster entry with offset > `offset` (end() if none) — the
  /// card-scan entry point.
  Roster::const_iterator UpperBound(uint32_t offset) const {
    DropDead();
    return std::upper_bound(
        objects_by_offset_.begin(), objects_by_offset_.end(), offset,
        [](uint32_t o, const PartitionResident& r) { return o < r.offset; });
  }

  /// Resets the partition to empty (after all its live objects were copied
  /// out). The bookkeeping roster must already be empty.
  void Reset() {
    assert(objects_by_offset_.empty());
    alloc_offset_ = 0;
  }

  /// Objects resident in this partition, sorted by byte offset — the
  /// physical scan order, which keeps collection deterministic. Never
  /// holds a dead entry: any left by RemoveObject are dropped first.
  const Roster& objects_by_offset() const {
    DropDead();
    return objects_by_offset_;
  }

 private:
  /// Drops the dead entries RemoveObject left, in one order-preserving
  /// pass. Logically const: the live roster a reader sees is unchanged.
  /// Like the rest of the store, a partition has one owner thread at a
  /// time, so readers never run this concurrently.
  void DropDead() const {
    if (objects_by_offset_.size() == live_count_) return;
    std::erase_if(objects_by_offset_, [](const PartitionResident& r) {
      return r.id.is_null();
    });
  }

  Roster::const_iterator LowerBound(uint32_t offset) const {
    return std::lower_bound(
        objects_by_offset_.begin(), objects_by_offset_.end(), offset,
        [](const PartitionResident& r, uint32_t o) { return r.offset < o; });
  }
  Roster::iterator LowerBound(uint32_t offset) {
    return std::lower_bound(
        objects_by_offset_.begin(), objects_by_offset_.end(), offset,
        [](const PartitionResident& r, uint32_t o) { return r.offset < o; });
  }

  PartitionId id_;
  PageExtent extent_;
  uint32_t capacity_bytes_;
  uint32_t alloc_offset_ = 0;
  /// Offset-sorted roster. Dead entries (null id, offset kept so the
  /// order stays sorted) exist only between a RemoveObject and the next
  /// reader; the roster holds `live_count_` live entries.
  mutable Roster objects_by_offset_;
  size_t live_count_ = 0;
};

}  // namespace odbgc

#endif  // ODBGC_ODB_PARTITION_H_
