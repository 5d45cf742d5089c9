#ifndef ODBGC_ODB_OBJECT_STORE_H_
#define ODBGC_ODB_OBJECT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "buffer/buffer_pool.h"
#include "odb/object_id.h"
#include "odb/object_layout.h"
#include "odb/partition.h"
#include "storage/page_device.h"
#include "util/status.h"

namespace odbgc {

/// Everything the write barrier needs to know about one pointer store.
/// Delivered to the SlotWriteObserver *before* policies and remembered sets
/// are updated, with both the old and the new slot value resolved to the
/// partitions the referents currently occupy.
struct SlotWriteEvent {
  ObjectId source;
  PartitionId source_partition = kInvalidPartition;
  uint32_t slot = 0;
  ObjectId old_target;  // Null if the slot was empty.
  PartitionId old_target_partition = kInvalidPartition;
  ObjectId new_target;  // Null if the slot is being cleared.
  PartitionId new_target_partition = kInvalidPartition;

  /// True when a non-null pointer is being replaced — the paper's "pointer
  /// overwrite", the currency of the UpdatedPointer/WeightedPointer
  /// policies and of the collection trigger.
  bool is_overwrite() const { return !old_target.is_null(); }
};

/// Write-barrier hook. The GC heap installs one observer to maintain
/// remembered sets, weights, policy counters and the collection trigger.
class SlotWriteObserver {
 public:
  virtual ~SlotWriteObserver() = default;
  virtual void OnSlotWrite(const SlotWriteEvent& event) = 0;
};

/// Where a new object is physically placed. The paper's test database
/// places objects near their parent ("the database attempts to place a
/// new object near its parent"); the alternatives let the ablation
/// benches measure what that clustering is worth.
enum class PlacementPolicy {
  /// Parent's partition if it has room, else the current allocation
  /// partition, else first fit (the paper's policy).
  kNearParent,
  /// Ignore the parent hint: stream every allocation into the current
  /// allocation partition (pure creation-order clustering).
  kSequential,
  /// Rotate allocations across all partitions with room (deliberately
  /// destroys clustering; a worst-case control).
  kRoundRobin,
};

/// Configuration for ObjectStore.
struct StoreOptions {
  /// Page size in bytes. The paper uses 8 KB pages throughout.
  size_t page_size = kDefaultPageSize;
  /// Pages per partition (24-100 in the paper, depending on database size).
  size_t pages_per_partition = 48;
  /// If true, one partition is always kept empty as the copying target.
  /// Every algorithm in the paper maintains one empty partition at all
  /// times; turn off only for stores that will never be collected.
  bool reserve_empty_partition = true;
  /// Physical placement of new objects.
  PlacementPolicy placement = PlacementPolicy::kNearParent;
};

/// A partitioned object database.
///
/// Responsibilities:
///  - object identity (ObjectTable: id -> physical location + cached
///    metadata + shadow slot values),
///  - physical placement: bump allocation within contiguous partitions,
///    new objects placed near their parent (the paper's placement policy),
///  - database growth: a new partition is appended when an allocation fits
///    nowhere (the paper's "grow when free space is exhausted" policy),
///  - all reads/writes of object bytes, each charged as page I/O through
///    the BufferPool,
///  - the root set,
///  - relocation primitives used by the copying collector.
///
/// The store deliberately knows nothing about garbage collection policy;
/// the `core` library builds the collector on top of these primitives.
///
/// I/O charging model (documented per operation): the object table, root
/// set and partition directory are assumed resident in primary memory and
/// are never charged, matching the paper's treatment of its auxiliary
/// structures. Object *contents* (headers, slots, payloads) live in pages
/// and every access to them goes through the buffer pool.
class ObjectStore {
 public:
  /// `disk` and `buffer` must outlive the store and `buffer` must wrap
  /// `disk`. Creates one allocatable partition, plus the reserved empty
  /// partition if configured.
  ObjectStore(const StoreOptions& options, PageDevice* disk,
              BufferPool* buffer);

  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  /// Installs the write-barrier observer (may be null to remove).
  void set_slot_write_observer(SlotWriteObserver* observer) {
    observer_ = observer;
  }

  // -- Application-facing operations ---------------------------------------

  /// Allocates an object of `size` bytes with `num_slots` pointer slots
  /// (all initialized to null). Placement: the partition of `parent_hint`
  /// if it has room, else the partition that most recently accepted an
  /// allocation, else the first partition with room, else a brand-new
  /// partition. Charges page writes covering the whole new object.
  ///
  /// `size` must be at least MinObjectSize(num_slots) and at most the
  /// partition capacity. Returns InvalidArgument otherwise.
  Result<ObjectId> Allocate(uint32_t size, uint32_t num_slots,
                            ObjectId parent_hint = kNullObjectId,
                            uint8_t flags = 0);

  /// Stores `target` (possibly null) into `slot` of `source`. Charges one
  /// page write (the slot's page). Fires the write-barrier observer.
  Status WriteSlot(ObjectId source, uint32_t slot, ObjectId target);

  /// Reads `slot` of `source`, charging one page read.
  Result<ObjectId> ReadSlot(ObjectId source, uint32_t slot);

  /// An application visit to `object`: charges page reads covering the
  /// header and slots (not the data payload — matches the paper's note
  /// that large-object payloads influence database size, not traversal
  /// I/O).
  Status VisitObject(ObjectId object);

  /// A pure data mutation (no pointer change): charges one page write to
  /// the object's first payload page (or header page if no payload).
  /// Data mutations cannot create garbage, which is exactly what
  /// distinguishes UpdatedPointer from the original MutatedPartition.
  Status WriteData(ObjectId object);

  /// Adds `object` to the database root set (idempotent).
  Status AddRoot(ObjectId object);

  /// Removes `object` from the root set; NotFound if absent.
  Status RemoveRoot(ObjectId object);

  /// Root objects in insertion order (deterministic iteration).
  const std::vector<ObjectId>& roots() const { return roots_; }

  bool IsRoot(ObjectId object) const {
    const ObjectInfo* info = Lookup(object);
    return info != nullptr && info->root_pos != ObjectInfo::kNotRoot;
  }

  // -- Object table ---------------------------------------------------------

  /// Cached metadata and shadow state for a live object.
  struct ObjectInfo {
    /// root_pos value meaning "not in the root set".
    static constexpr uint32_t kNotRoot = UINT32_MAX;

    PartitionId partition = kInvalidPartition;
    uint32_t offset = 0;
    uint32_t size = 0;
    uint32_t num_slots = 0;
    uint8_t flags = 0;
    /// Position of this object in the root vector, or kNotRoot. Dense
    /// replacement for a side root-index map: the root set is answered by
    /// the same cache line the lookup already touched.
    uint32_t root_pos = kNotRoot;
    /// Shadow copy of the slot values. Kept exactly in sync with the
    /// serialized page bytes; exists so that the oracle (MostGarbage,
    /// garbage census) and internal bookkeeping can walk the object graph
    /// without perturbing the measured I/O.
    std::vector<ObjectId> slots;
  };

  /// Looks up a live object; nullptr if the id is null or dead. Two array
  /// indexes: the id resolves through the slot directory to the object's
  /// current table slot (slots are recycled; ids never are).
  const ObjectInfo* Lookup(ObjectId object) const {
    if (object.value >= id_to_slot_.size()) return nullptr;
    const uint32_t slot = id_to_slot_[object.value];
    return slot == kNoSlot ? nullptr : &slots_[slot];
  }

  bool Exists(ObjectId object) const { return Lookup(object) != nullptr; }

  /// The partition `object` occupies, or kInvalidPartition if it is dead.
  PartitionId PartitionOf(ObjectId object) const {
    const ObjectInfo* info = Lookup(object);
    return info == nullptr ? kInvalidPartition : info->partition;
  }

  /// Number of live objects in the table.
  size_t object_count() const { return live_count_; }

  /// Exclusive upper bound on every ObjectId this store has ever issued.
  /// Ids are sequential and never reused, so `id.value < id_limit()` holds
  /// for all objects, live or dead — the contract that lets the
  /// epoch-stamped mark vectors in core/reachability.h use the id as a
  /// dense index.
  uint64_t id_limit() const { return next_id_; }

  /// Sum of the sizes of all live table entries, in bytes.
  uint64_t live_bytes() const { return live_bytes_; }

  // -- Partition directory --------------------------------------------------

  size_t partition_count() const { return partitions_.size(); }
  const Partition& partition(PartitionId id) const { return partitions_[id]; }
  size_t partition_bytes() const {
    return options_.page_size * options_.pages_per_partition;
  }

  /// The reserved empty copy-target partition (kInvalidPartition if the
  /// store was configured without one).
  PartitionId empty_partition() const { return empty_partition_; }

  /// Total footprint of the database: all partitions, including garbage
  /// and fragmentation — the paper's "storage required" metric.
  uint64_t total_bytes() const {
    return static_cast<uint64_t>(partitions_.size()) * partition_bytes();
  }

  /// Appends a new partition and returns its id (also used internally by
  /// Allocate when space is exhausted).
  PartitionId AddPartition();

  // -- Collector support ----------------------------------------------------
  // These primitives are the contract between the store and core/ — they
  // move bytes and bookkeeping but make no policy decisions.

  /// Physically copies `object` into partition `target` (bump-allocated
  /// there), updates the object table and both partitions (the source's
  /// roster keeps the entry, see Partition::ReleaseObject), and charges
  /// page reads at the source plus page writes at the destination.
  /// Fails with ResourceExhausted if the object does not fit.
  Status RelocateObject(ObjectId object, PartitionId target);

  /// Drops a dead object from the table and its partition. No I/O:
  /// garbage is reclaimed wholesale when its partition is reset.
  Status DropObject(ObjectId object);

  /// Declares `id` empty after collection: requires no resident objects,
  /// resets its bump pointer and roster, discards its buffered pages
  /// without write-back (their contents are garbage), and makes it the
  /// reserved empty partition. The previously reserved partition becomes
  /// available for allocation.
  Status SwapEmptyPartition(PartitionId id);

  /// Ends an evacuation of `victim` that failed part-way: drops the roster
  /// entries of objects that left it, and if the reserved empty partition
  /// has been written to, it keeps those copies as an ordinary partition
  /// and a new partition is reserved in its place.
  void AbandonEvacuation(PartitionId victim);

  /// Charges a read or write of the page(s) covering the object's header.
  /// Used by the weight machinery, whose updates rewrite the header byte.
  Status TouchHeader(ObjectId object, AccessMode mode);

  // -- Raw byte access (tests, integrity checks) ---------------------------

  /// Reads `out.size()` bytes starting at (partition, offset) through the
  /// buffer pool (charges I/O like any other access).
  Status ReadBytes(PartitionId partition, uint32_t offset,
                   std::span<std::byte> out, AccessMode mode = AccessMode::kRead);

  /// Decodes the serialized header of `object` from its pages (charges
  /// read I/O). Tests use this to confirm shadow state matches disk state.
  Result<ObjectHeader> ReadHeaderFromPages(ObjectId object);

  /// Decodes serialized slot `slot` of `object` from its pages (charges
  /// read I/O).
  Result<ObjectId> ReadSlotFromPages(ObjectId object, uint32_t slot);

  // Bump-allocates in `partition`; returns true and sets *offset on success.
  bool TryPlace(PartitionId partition, uint32_t size, uint32_t* offset);

  // Chooses a partition for a new object of `size` bytes, growing the
  // database if necessary. Never returns the reserved empty partition.
  PartitionId ChoosePartition(uint32_t size, ObjectId parent_hint);

  // Writes `data` at (partition, offset), page by page through the buffer.
  Status WriteBytes(PartitionId partition, uint32_t offset,
                    std::span<const std::byte> data);

  // Charges accesses for the byte range without transferring data.
  Status TouchRange(PartitionId partition, uint32_t offset, uint32_t length,
                    AccessMode mode);

  ObjectInfo* MutableLookup(ObjectId object) {
    if (object.value >= id_to_slot_.size()) return nullptr;
    const uint32_t slot = id_to_slot_[object.value];
    return slot == kNoSlot ? nullptr : &slots_[slot];
  }

  // Claims a table slot for a new object, recycling freed slots (and
  // their ObjectInfo's slot-vector capacity) before growing the array.
  uint32_t ClaimSlot();

  const StoreOptions options_;
  PageDevice* const disk_;
  BufferPool* const buffer_;
  SlotWriteObserver* observer_ = nullptr;

  std::vector<Partition> partitions_;
  PartitionId empty_partition_ = kInvalidPartition;
  // Partition that most recently accepted an allocation; tried first for
  // parentless objects so that fresh trees are laid out contiguously.
  PartitionId current_alloc_partition_ = 0;
  // Rotation cursor for PlacementPolicy::kRoundRobin.
  PartitionId round_robin_cursor_ = 0;

  /// id_to_slot_ sentinel: id never issued, or object dead.
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  // Slot-addressed object table. Ids are sequential and never reused, so
  // the id → slot directory is a flat array indexed by id value (entry 0
  // is the null id and stays kNoSlot); the ObjectInfo records live in a
  // parallel slot array whose entries are recycled through a freelist as
  // objects die. Invariant: id_to_slot_.size() == next_id_.
  std::vector<uint32_t> id_to_slot_ = {kNoSlot};
  std::vector<ObjectInfo> slots_;
  std::vector<uint32_t> free_slots_;
  size_t live_count_ = 0;
  uint64_t next_id_ = 1;
  uint64_t live_bytes_ = 0;

  std::vector<ObjectId> roots_;

  // RelocateObject's page-run copy buffer, reused across objects.
  std::vector<std::byte> copy_chunk_;
};

}  // namespace odbgc

#endif  // ODBGC_ODB_OBJECT_STORE_H_
