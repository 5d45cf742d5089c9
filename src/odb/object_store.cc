#include "odb/object_store.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace odbgc {

ObjectStore::ObjectStore(const StoreOptions& options, PageDevice* disk,
                         BufferPool* buffer)
    : options_(options), disk_(disk), buffer_(buffer) {
  assert(disk_ != nullptr && buffer_ != nullptr);
  assert(options_.pages_per_partition > 0);
  AddPartition();  // Partition 0: first allocatable partition.
  if (options_.reserve_empty_partition) {
    empty_partition_ = AddPartition();
  }
}

PartitionId ObjectStore::AddPartition() {
  const PartitionId id = static_cast<PartitionId>(partitions_.size());
  PageExtent extent = disk_->AllocatePages(options_.pages_per_partition);
  partitions_.emplace_back(id, extent, options_.page_size);
  return id;
}

uint32_t ObjectStore::ClaimSlot() {
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

bool ObjectStore::TryPlace(PartitionId partition, uint32_t size,
                           uint32_t* offset) {
  if (partition == empty_partition_) return false;
  return partitions_[partition].TryAllocate(size, offset);
}

PartitionId ObjectStore::ChoosePartition(uint32_t size, ObjectId parent_hint) {
  // Round-robin: rotate over partitions with room (control policy that
  // deliberately destroys clustering).
  if (options_.placement == PlacementPolicy::kRoundRobin) {
    const size_t n = partitions_.size();
    for (size_t step = 1; step <= n; ++step) {
      const PartitionId p =
          static_cast<PartitionId>((round_robin_cursor_ + step) % n);
      if (p == empty_partition_) continue;
      if (partitions_[p].free_bytes() >= size) {
        round_robin_cursor_ = p;
        return p;
      }
    }
    return AddPartition();
  }

  // 1. Near the parent (the paper's placement policy).
  if (options_.placement == PlacementPolicy::kNearParent) {
    if (const ObjectInfo* parent = Lookup(parent_hint)) {
      if (partitions_[parent->partition].free_bytes() >= size &&
          parent->partition != empty_partition_) {
        return parent->partition;
      }
    }
  }
  // 2. The current allocation partition, so parentless allocations (new
  //    tree roots) stream into one partition in creation order.
  if (current_alloc_partition_ < partitions_.size() &&
      current_alloc_partition_ != empty_partition_ &&
      partitions_[current_alloc_partition_].free_bytes() >= size) {
    return current_alloc_partition_;
  }
  // 3. First fit over existing partitions.
  for (const Partition& p : partitions_) {
    if (p.id() != empty_partition_ && p.free_bytes() >= size) return p.id();
  }
  // 4. Grow the database by one partition ("when free space is exhausted").
  return AddPartition();
}

Result<ObjectId> ObjectStore::Allocate(uint32_t size, uint32_t num_slots,
                                       ObjectId parent_hint, uint8_t flags) {
  if (size < MinObjectSize(num_slots)) {
    return Status::InvalidArgument("object size below header+slots minimum");
  }
  if (size > partition_bytes()) {
    return Status::InvalidArgument("object larger than a partition");
  }

  const PartitionId pid = ChoosePartition(size, parent_hint);
  uint32_t offset = 0;
  if (!TryPlace(pid, size, &offset)) {
    return Status::ResourceExhausted("partition chosen for allocation full");
  }
  current_alloc_partition_ = pid;

  const ObjectId id{next_id_++};
  const uint32_t slot = ClaimSlot();
  id_to_slot_.push_back(slot);  // id.value == previous id_to_slot_.size().
  ObjectInfo& info = slots_[slot];
  info.partition = pid;
  info.offset = offset;
  info.size = size;
  info.num_slots = num_slots;
  info.flags = flags;
  info.root_pos = ObjectInfo::kNotRoot;
  info.slots.assign(num_slots, kNullObjectId);
  partitions_[pid].AddObject(offset, id);
  live_bytes_ += size;
  ++live_count_;

  // Serialize header + null slots; charge writes covering the whole new
  // object (a freshly created object is written in its entirety).
  std::vector<std::byte> image(MinObjectSize(num_slots));
  ObjectHeader header;
  header.id = id;
  header.size = size;
  header.num_slots = num_slots;
  header.weight = 16;
  header.flags = flags;
  EncodeObjectHeader(header, image);
  for (uint32_t s = 0; s < num_slots; ++s) {
    EncodeSlot(kNullObjectId,
               std::span<std::byte>(image).subspan(SlotOffset(s), kSlotSize));
  }
  ODBGC_RETURN_IF_ERROR(WriteBytes(pid, offset, image));
  // The payload area beyond header+slots is charged but not transferred.
  if (size > image.size()) {
    ODBGC_RETURN_IF_ERROR(TouchRange(pid, offset + image.size(),
                                     size - static_cast<uint32_t>(image.size()),
                                     AccessMode::kWrite));
  }
  return id;
}

Status ObjectStore::WriteSlot(ObjectId source, uint32_t slot,
                              ObjectId target) {
  ObjectInfo* info = MutableLookup(source);
  if (info == nullptr) {
    return Status::NotFound("WriteSlot: source object not found");
  }
  if (slot >= info->num_slots) {
    return Status::OutOfRange("WriteSlot: slot index out of range");
  }
  if (!target.is_null() && !Exists(target)) {
    return Status::NotFound("WriteSlot: target object not found");
  }

  const ObjectId old_target = info->slots[slot];

  SlotWriteEvent event;
  event.source = source;
  event.source_partition = info->partition;
  event.slot = slot;
  event.old_target = old_target;
  if (const ObjectInfo* t = Lookup(old_target)) {
    event.old_target_partition = t->partition;
  }
  event.new_target = target;
  if (const ObjectInfo* t = Lookup(target)) {
    event.new_target_partition = t->partition;
  }

  // Update shadow and serialized state. One write access to the slot's
  // page; the old value lives on the same page, so reading it first (as
  // UpdatedPointer requires) costs no extra I/O — exactly the paper's
  // argument for that policy's cheapness.
  info->slots[slot] = target;
  std::byte image[kSlotSize];
  EncodeSlot(target, image);
  ODBGC_RETURN_IF_ERROR(WriteBytes(
      info->partition, info->offset + static_cast<uint32_t>(SlotOffset(slot)),
      std::span<const std::byte>(image, kSlotSize)));

  if (observer_ != nullptr) observer_->OnSlotWrite(event);
  return Status::Ok();
}

Result<ObjectId> ObjectStore::ReadSlot(ObjectId source, uint32_t slot) {
  const ObjectInfo* info = Lookup(source);
  if (info == nullptr) {
    return Status::NotFound("ReadSlot: source object not found");
  }
  if (slot >= info->num_slots) {
    return Status::OutOfRange("ReadSlot: slot index out of range");
  }
  ODBGC_RETURN_IF_ERROR(TouchRange(
      info->partition, info->offset + static_cast<uint32_t>(SlotOffset(slot)),
      kSlotSize, AccessMode::kRead));
  return info->slots[slot];
}

Status ObjectStore::VisitObject(ObjectId object) {
  const ObjectInfo* info = Lookup(object);
  if (info == nullptr) {
    return Status::NotFound("VisitObject: object not found");
  }
  return TouchRange(info->partition, info->offset,
                    static_cast<uint32_t>(MinObjectSize(info->num_slots)),
                    AccessMode::kRead);
}

Status ObjectStore::WriteData(ObjectId object) {
  const ObjectInfo* info = Lookup(object);
  if (info == nullptr) {
    return Status::NotFound("WriteData: object not found");
  }
  const uint32_t payload_start =
      static_cast<uint32_t>(MinObjectSize(info->num_slots));
  const uint32_t at =
      info->size > payload_start ? info->offset + payload_start : info->offset;
  return TouchRange(info->partition, at, 1, AccessMode::kWrite);
}

Status ObjectStore::AddRoot(ObjectId object) {
  ObjectInfo* info = MutableLookup(object);
  if (info == nullptr) return Status::NotFound("AddRoot: object not found");
  if (info->root_pos != ObjectInfo::kNotRoot) return Status::Ok();
  info->root_pos = static_cast<uint32_t>(roots_.size());
  roots_.push_back(object);
  return Status::Ok();
}

Status ObjectStore::RemoveRoot(ObjectId object) {
  ObjectInfo* info = MutableLookup(object);
  if (info == nullptr || info->root_pos == ObjectInfo::kNotRoot) {
    return Status::NotFound("RemoveRoot: not a root");
  }
  // Swap-with-last keeps removal O(1) while the vector stays deterministic.
  const uint32_t pos = info->root_pos;
  const ObjectId last = roots_.back();
  roots_[pos] = last;
  MutableLookup(last)->root_pos = pos;
  roots_.pop_back();
  info->root_pos = ObjectInfo::kNotRoot;
  return Status::Ok();
}

Status ObjectStore::RelocateObject(ObjectId object, PartitionId target) {
  ObjectInfo* info = MutableLookup(object);
  if (info == nullptr) {
    return Status::NotFound("RelocateObject: object not found");
  }
  if (target >= partitions_.size()) {
    return Status::OutOfRange("RelocateObject: bad target partition");
  }
  uint32_t new_offset = 0;
  if (!partitions_[target].TryAllocate(info->size, &new_offset)) {
    return Status::ResourceExhausted(
        "RelocateObject: target partition cannot hold object");
  }

  // Physical copy, page by page: read at source, write at destination.
  const PartitionId src_partition = info->partition;
  const uint32_t src_offset = info->offset;
  uint32_t copied = 0;
  while (copied < info->size) {
    const uint32_t page_size = static_cast<uint32_t>(options_.page_size);
    const uint32_t src_at = src_offset + copied;
    const uint32_t dst_at = new_offset + copied;
    // Largest run that stays within one source page and one dest page.
    const uint32_t src_room = page_size - src_at % page_size;
    const uint32_t dst_room = page_size - dst_at % page_size;
    const uint32_t len =
        std::min({info->size - copied, src_room, dst_room});
    copy_chunk_.resize(len);
    ODBGC_RETURN_IF_ERROR(
        ReadBytes(src_partition, src_at, copy_chunk_, AccessMode::kRead));
    ODBGC_RETURN_IF_ERROR(WriteBytes(target, dst_at, copy_chunk_));
    copied += len;
  }

  partitions_[src_partition].ReleaseObject();
  partitions_[target].AddObject(new_offset, object);
  info->partition = target;
  info->offset = new_offset;
  return Status::Ok();
}

Status ObjectStore::DropObject(ObjectId object) {
  ObjectInfo* info = MutableLookup(object);
  if (info == nullptr) {
    return Status::NotFound("DropObject: object not found");
  }
  if (info->root_pos != ObjectInfo::kNotRoot) {
    return Status::FailedPrecondition("DropObject: object is a root");
  }
  partitions_[info->partition].ReleaseObject();
  live_bytes_ -= info->size;
  // Recycle the table slot; clear() keeps the slot vector's capacity for
  // the next object that lands here.
  info->partition = kInvalidPartition;
  info->slots.clear();
  free_slots_.push_back(id_to_slot_[object.value]);
  id_to_slot_[object.value] = kNoSlot;
  --live_count_;
  return Status::Ok();
}

Status ObjectStore::SwapEmptyPartition(PartitionId id) {
  if (id >= partitions_.size()) {
    return Status::OutOfRange("SwapEmptyPartition: bad partition");
  }
  if (!partitions_[id].empty()) {
    return Status::FailedPrecondition(
        "SwapEmptyPartition: partition still holds objects");
  }
  partitions_[id].Reset();
  // Its page contents are garbage; drop them from the buffer without
  // spending write-back I/O on them.
  buffer_->DiscardExtent(partitions_[id].extent());
  empty_partition_ = id;
  return Status::Ok();
}

void ObjectStore::AbandonEvacuation(PartitionId victim) {
  partitions_[victim].DropEntries([&](const PartitionResident& entry) {
    const ObjectInfo* info = Lookup(entry.id);
    return info == nullptr || info->partition != victim ||
           info->offset != entry.offset;
  });
  if (partitions_[empty_partition_].allocated_bytes() > 0) {
    empty_partition_ = AddPartition();
  }
}

Status ObjectStore::TouchHeader(ObjectId object, AccessMode mode) {
  const ObjectInfo* info = Lookup(object);
  if (info == nullptr) {
    return Status::NotFound("TouchHeader: object not found");
  }
  return TouchRange(info->partition, info->offset,
                    static_cast<uint32_t>(kObjectHeaderSize), mode);
}

Status ObjectStore::ReadBytes(PartitionId partition, uint32_t offset,
                              std::span<std::byte> out, AccessMode mode) {
  if (partition >= partitions_.size()) {
    return Status::OutOfRange("ReadBytes: bad partition");
  }
  const Partition& p = partitions_[partition];
  if (static_cast<uint64_t>(offset) + out.size() > p.capacity_bytes()) {
    return Status::OutOfRange("ReadBytes: range beyond partition");
  }
  const uint32_t page_size = static_cast<uint32_t>(options_.page_size);
  size_t done = 0;
  while (done < out.size()) {
    const uint32_t at = offset + static_cast<uint32_t>(done);
    const PageId page = p.extent().first_page + at / page_size;
    const uint32_t in_page = at % page_size;
    const size_t len =
        std::min(out.size() - done, static_cast<size_t>(page_size - in_page));
    auto frame = buffer_->GetPage(page, mode);
    ODBGC_RETURN_IF_ERROR(frame.status());
    std::memcpy(out.data() + done, frame->data() + in_page, len);
    done += len;
  }
  return Status::Ok();
}

Status ObjectStore::WriteBytes(PartitionId partition, uint32_t offset,
                               std::span<const std::byte> data) {
  if (partition >= partitions_.size()) {
    return Status::OutOfRange("WriteBytes: bad partition");
  }
  const Partition& p = partitions_[partition];
  if (static_cast<uint64_t>(offset) + data.size() > p.capacity_bytes()) {
    return Status::OutOfRange("WriteBytes: range beyond partition");
  }
  const uint32_t page_size = static_cast<uint32_t>(options_.page_size);
  size_t done = 0;
  while (done < data.size()) {
    const uint32_t at = offset + static_cast<uint32_t>(done);
    const PageId page = p.extent().first_page + at / page_size;
    const uint32_t in_page = at % page_size;
    const size_t len =
        std::min(data.size() - done, static_cast<size_t>(page_size - in_page));
    auto frame = buffer_->GetPage(page, AccessMode::kWrite);
    ODBGC_RETURN_IF_ERROR(frame.status());
    std::memcpy(frame->data() + in_page, data.data() + done, len);
    done += len;
  }
  return Status::Ok();
}

Status ObjectStore::TouchRange(PartitionId partition, uint32_t offset,
                               uint32_t length, AccessMode mode) {
  if (partition >= partitions_.size()) {
    return Status::OutOfRange("TouchRange: bad partition");
  }
  const Partition& p = partitions_[partition];
  if (static_cast<uint64_t>(offset) + length > p.capacity_bytes()) {
    return Status::OutOfRange("TouchRange: range beyond partition");
  }
  const uint32_t page_size = static_cast<uint32_t>(options_.page_size);
  const PageId first = p.extent().first_page + offset / page_size;
  const PageId last = p.extent().first_page + (offset + length - 1) / page_size;
  for (PageId page = first; page <= last; ++page) {
    auto frame = buffer_->GetPage(page, mode);
    ODBGC_RETURN_IF_ERROR(frame.status());
  }
  return Status::Ok();
}

Result<ObjectHeader> ObjectStore::ReadHeaderFromPages(ObjectId object) {
  const ObjectInfo* info = Lookup(object);
  if (info == nullptr) {
    return Status::NotFound("ReadHeaderFromPages: object not found");
  }
  std::byte image[kObjectHeaderSize];
  ODBGC_RETURN_IF_ERROR(ReadBytes(info->partition, info->offset,
                                  std::span<std::byte>(image)));
  return DecodeObjectHeader(std::span<const std::byte>(image));
}

Result<ObjectId> ObjectStore::ReadSlotFromPages(ObjectId object,
                                                uint32_t slot) {
  const ObjectInfo* info = Lookup(object);
  if (info == nullptr) {
    return Status::NotFound("ReadSlotFromPages: object not found");
  }
  if (slot >= info->num_slots) {
    return Status::OutOfRange("ReadSlotFromPages: slot out of range");
  }
  std::byte image[kSlotSize];
  ODBGC_RETURN_IF_ERROR(ReadBytes(
      info->partition, info->offset + static_cast<uint32_t>(SlotOffset(slot)),
      std::span<std::byte>(image)));
  return DecodeSlot(std::span<const std::byte>(image));
}

}  // namespace odbgc
