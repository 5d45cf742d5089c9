#ifndef ODBGC_CORE_WRITE_BARRIER_H_
#define ODBGC_CORE_WRITE_BARRIER_H_

#include <cstdint>
#include <set>
#include <vector>

#include "buffer/buffer_pool.h"
#include "core/remembered_set.h"
#include "odb/object_store.h"
#include "util/status.h"

namespace odbgc {

/// How the write barrier maintains the remembered sets (Table 1's "how to
/// maintain the inter-partition pointers" axis; cf. Hosking, Moss &
/// Stefanovic's comparative evaluation the paper cites).
enum class BarrierMode {
  /// Update the inter-partition index synchronously at every pointer
  /// store, including removing the overwritten pointer's entry. Most
  /// precise, most per-store work; what the paper's simulator assumes.
  kExact,
  /// Log every pointer-store location into a sequential store buffer;
  /// drain the log when a collection is about to run, reading each logged
  /// slot's *current* value (charged I/O) and updating the index then.
  /// Cheap stores, deferred cost, duplicates possible in the log.
  kSequentialStoreBuffer,
  /// Mark the fixed-size card containing the updated slot. When a
  /// collection is about to run, scan every dirty card (charged I/O),
  /// refresh the index from the pointers found, and leave a card dirty
  /// while it still holds any inter-partition pointer — the classic
  /// rescan cost of imprecise card remembering.
  kCardMarking,
};

const char* BarrierModeName(BarrierMode mode);

/// Barrier bookkeeping counters.
struct BarrierStats {
  uint64_t stores_observed = 0;
  uint64_t ssb_entries_logged = 0;
  uint64_t ssb_entries_drained = 0;
  uint64_t cards_marked = 0;
  uint64_t cards_scanned = 0;
  uint64_t cards_left_dirty = 0;
};

/// Maintains the InterPartitionIndex under one of the three barrier
/// implementations. The heap routes every SlotWriteEvent through
/// OnSlotWrite and calls PrepareForCollection before any collection; in
/// exact mode the latter is free, in the deferred modes it performs the
/// postponed work (charging collector-phase I/O through the store).
class WriteBarrier {
 public:
  /// `store` and `index` must outlive the barrier. `card_size` is the
  /// card granularity in bytes for kCardMarking (must divide the page
  /// size evenly for sane scanning; 512 is the classic choice).
  WriteBarrier(BarrierMode mode, ObjectStore* store,
               InterPartitionIndex* index, uint32_t card_size = 512);

  /// Observes one pointer store (in-memory bookkeeping only).
  void OnSlotWrite(const SlotWriteEvent& event);

  /// Brings the index up to date before a collection. Deferred modes
  /// charge their catch-up I/O here (the caller should have switched the
  /// buffer to the collector phase).
  Status PrepareForCollection();

  /// Informs the barrier that `partition` was emptied by a collection
  /// (its cards are clean now).
  void OnPartitionEmptied(PartitionId partition);

  BarrierMode mode() const { return mode_; }
  const BarrierStats& stats() const { return stats_; }
  size_t pending_work() const {
    return ssb_.size() + dirty_cards_.size();
  }

 private:
  struct Card {
    PartitionId partition;
    uint32_t index;  // Card number within the partition.
    friend bool operator<(const Card& a, const Card& b) {
      return a.partition != b.partition ? a.partition < b.partition
                                        : a.index < b.index;
    }
  };

  // Re-derives the index entry for (source, slot) from the shadow state:
  // removes whatever the index had for that location and re-adds the
  // current pointer if it crosses partitions.
  void RecordCurrent(ObjectId source, uint32_t slot);

  Status DrainStoreBuffer();
  Status ScanDirtyCards();

  const BarrierMode mode_;
  ObjectStore* const store_;
  InterPartitionIndex* const index_;
  const uint32_t card_size_;

  std::vector<PointerLocation> ssb_;
  std::set<Card> dirty_cards_;  // Ordered: deterministic scans.
  BarrierStats stats_;
};

}  // namespace odbgc

#endif  // ODBGC_CORE_WRITE_BARRIER_H_
