#include "core/write_barrier.h"

#include <cassert>

#include "odb/object_layout.h"

namespace odbgc {

const char* BarrierModeName(BarrierMode mode) {
  switch (mode) {
    case BarrierMode::kExact: return "exact";
    case BarrierMode::kSequentialStoreBuffer: return "store-buffer";
    case BarrierMode::kCardMarking: return "card-marking";
  }
  return "unknown";
}

WriteBarrier::WriteBarrier(BarrierMode mode, ObjectStore* store,
                           InterPartitionIndex* index, uint32_t card_size)
    : mode_(mode), store_(store), index_(index), card_size_(card_size) {
  assert(store_ != nullptr && index_ != nullptr);
  assert(card_size_ > 0);
}

void WriteBarrier::OnSlotWrite(const SlotWriteEvent& event) {
  ++stats_.stores_observed;
  switch (mode_) {
    case BarrierMode::kExact:
      if (event.is_overwrite() &&
          event.old_target_partition != kInvalidPartition &&
          event.old_target_partition != event.source_partition) {
        index_->RemoveReference(event.source, event.slot, event.old_target);
      }
      if (!event.new_target.is_null() &&
          event.new_target_partition != event.source_partition) {
        index_->AddReference(event.source, event.source_partition,
                             event.slot, event.new_target,
                             event.new_target_partition);
      }
      break;
    case BarrierMode::kSequentialStoreBuffer:
      ssb_.push_back({event.source, event.slot});
      ++stats_.ssb_entries_logged;
      break;
    case BarrierMode::kCardMarking: {
      const ObjectStore::ObjectInfo* info = store_->Lookup(event.source);
      assert(info != nullptr);
      const uint32_t at =
          info->offset + static_cast<uint32_t>(SlotOffset(event.slot));
      const Card card{info->partition, at / card_size_};
      if (dirty_cards_.insert(card).second) ++stats_.cards_marked;
      break;
    }
  }
}

void WriteBarrier::RecordCurrent(ObjectId source, uint32_t slot) {
  // Remove whatever the index believes about this location.
  if (const auto* outs = index_->OutPointersOfSource(source)) {
    for (const auto& [s, target] : *outs) {
      if (s == slot) {
        index_->RemoveReference(source, slot, target);
        break;
      }
    }
  }
  const ObjectStore::ObjectInfo* info = store_->Lookup(source);
  if (info == nullptr || slot >= info->num_slots) return;
  const ObjectId target = info->slots[slot];
  if (target.is_null()) return;
  const ObjectStore::ObjectInfo* target_info = store_->Lookup(target);
  if (target_info == nullptr || target_info->partition == info->partition) {
    return;
  }
  index_->AddReference(source, info->partition, slot, target,
                       target_info->partition);
}

Status WriteBarrier::DrainStoreBuffer() {
  for (const PointerLocation& location : ssb_) {
    ++stats_.ssb_entries_drained;
    if (!store_->Exists(location.source)) continue;  // Died since logging.
    // A real drain reads the slot's current value from its page.
    ODBGC_RETURN_IF_ERROR(
        store_->ReadSlot(location.source, location.slot).status());
    RecordCurrent(location.source, location.slot);
  }
  ssb_.clear();
  return Status::Ok();
}

Status WriteBarrier::ScanDirtyCards() {
  std::vector<std::byte> scratch(card_size_);
  std::set<Card> still_dirty;
  for (const Card& card : dirty_cards_) {
    ++stats_.cards_scanned;
    if (card.partition >= store_->partition_count()) continue;
    const Partition& partition = store_->partition(card.partition);
    const uint32_t card_start = card.index * card_size_;
    if (card_start >= partition.capacity_bytes()) continue;
    const uint32_t card_end =
        std::min(card_start + card_size_, partition.capacity_bytes());

    // Scanning the card is a real read of its bytes.
    ODBGC_RETURN_IF_ERROR(store_->ReadBytes(
        card.partition, card_start,
        std::span<std::byte>(scratch.data(), card_end - card_start)));

    // Objects overlapping the card: start from the last object whose
    // offset is <= card_start.
    const auto& roster = partition.objects_by_offset();
    auto it = partition.UpperBound(card_start);
    if (it != roster.begin()) --it;
    bool keeps_inter_partition_pointer = false;
    for (; it != roster.end() && it->offset < card_end; ++it) {
      const ObjectId id = it->id;
      const ObjectStore::ObjectInfo* info = store_->Lookup(id);
      if (info == nullptr) continue;
      for (uint32_t s = 0; s < info->num_slots; ++s) {
        const uint32_t slot_at =
            info->offset + static_cast<uint32_t>(SlotOffset(s));
        if (slot_at + kSlotSize <= card_start || slot_at >= card_end) {
          continue;
        }
        RecordCurrent(id, s);
        const ObjectId target = info->slots[s];
        if (!target.is_null()) {
          const ObjectStore::ObjectInfo* target_info = store_->Lookup(target);
          if (target_info != nullptr &&
              target_info->partition != info->partition) {
            keeps_inter_partition_pointer = true;
          }
        }
      }
    }
    // The imprecision cost: a card holding any inter-partition pointer
    // stays dirty and will be rescanned at the next collection.
    if (keeps_inter_partition_pointer) {
      still_dirty.insert(card);
      ++stats_.cards_left_dirty;
    }
  }
  dirty_cards_ = std::move(still_dirty);
  return Status::Ok();
}

Status WriteBarrier::PrepareForCollection() {
  switch (mode_) {
    case BarrierMode::kExact:
      return Status::Ok();
    case BarrierMode::kSequentialStoreBuffer:
      return DrainStoreBuffer();
    case BarrierMode::kCardMarking:
      return ScanDirtyCards();
  }
  return Status::Ok();
}

void WriteBarrier::OnPartitionEmptied(PartitionId partition) {
  for (auto it = dirty_cards_.begin(); it != dirty_cards_.end();) {
    if (it->partition == partition) {
      it = dirty_cards_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace odbgc
