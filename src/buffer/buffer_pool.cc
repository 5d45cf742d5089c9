#include "buffer/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <utility>

namespace odbgc {

BufferPool::BufferPool(PageDevice* device, size_t frame_count,
                       SharedFrameArena* arena)
    : device_(device),
      registry_(device->metrics()),
      page_size_(device->page_size()),
      frame_count_(frame_count),
      sentinel_(static_cast<uint32_t>(frame_count)),
      frames_(frame_count + 1),
      page_to_slot_(frame_count),
      owned_arena_(arena == nullptr
                       ? std::make_unique<SharedFrameArena>(frame_count)
                       : nullptr),
      arena_(arena != nullptr ? arena : owned_arena_.get()),
      hits_(registry_->Register("buffer.hits")),
      misses_(registry_->Register("buffer.misses")),
      reads_(registry_->Register("buffer.disk_reads")),
      writes_(registry_->Register("buffer.disk_writes")) {
  assert(frame_count_ > 0);
  ResetSlots();
}

void BufferPool::PushFront(uint32_t slot) {
  const uint32_t first = frames_[sentinel_].next;
  frames_[slot].prev = sentinel_;
  frames_[slot].next = first;
  frames_[first].prev = slot;
  frames_[sentinel_].next = slot;
}

void BufferPool::Unlink(uint32_t slot) {
  const Frame& frame = frames_[slot];
  frames_[frame.prev].next = frame.next;
  frames_[frame.next].prev = frame.prev;
}

void BufferPool::ResetSlots() {
  frames_[sentinel_].prev = sentinel_;
  frames_[sentinel_].next = sentinel_;
  free_slots_.resize(frame_count_);
  std::iota(free_slots_.rbegin(), free_slots_.rend(), 0u);  // Top: slot 0.
}

bool BufferPool::AttachFrame(Frame& frame) {
  const uint32_t physical = arena_->TryAllocFrame();
  if (physical == SharedFrameArena::kNoFrame) return false;
  std::vector<std::byte>& bytes = arena_->FrameData(physical);
  // Frames migrate between tenants whose devices may differ in page size.
  if (bytes.size() != page_size_) bytes.resize(page_size_);
  frame.arena_frame = physical;
  frame.bytes = bytes.data();
  return true;
}

Result<std::span<std::byte>> BufferPool::GetPage(PageId page,
                                                 AccessMode mode) {
  ODBGC_DCHECK_EXCLUSIVE(&access_check_, "BufferPool::GetPage");
  const uint32_t resident = page_to_slot_.Find(page);
  if (resident != OpenIndexMap::kEmptyValue) {
    registry_->Count(hits_);
    Unlink(resident);
    PushFront(resident);
    Frame& frame = frames_[resident];
    if (mode == AccessMode::kWrite) frame.dirty = true;
    return Payload(frame);
  }

  registry_->Count(misses_);
  uint32_t slot;
  if (page_to_slot_.size() >= frame_count_) {
    // Quota full: evict the least recently used page; its frame is reused
    // for the incoming page.
    ODBGC_RETURN_IF_ERROR(EvictVictim(&slot));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    if (!AttachFrame(frames_[slot])) {
      // Squeeze: a shared arena is exhausted while this pool is under its
      // quota (the fleet is overcommitted past the admission bound; an
      // arena the pool owns always has a frame per free slot). Self-evict
      // our own victim rather than stealing another tenant's frame —
      // cross-tenant theft would wreck their determinism, not just ours.
      // Counted: invariance gates require zero squeezes.
      free_slots_.push_back(slot);
      if (page_to_slot_.empty()) {
        return Status::ResourceExhausted(
            "shared frame arena exhausted and tenant holds no frame to "
            "squeeze; raise the budget or arm the admission watermark");
      }
      ODBGC_RETURN_IF_ERROR(EvictVictim(&slot));
      ++squeezed_evictions_;
      arena_->NoteSqueezedEviction();
    }
  }

  Frame& frame = frames_[slot];
  const Status read = device_->ReadPage(page, Payload(frame));
  if (!read.ok()) {
    // The page never became resident; the slot returns to the free list
    // and its frame to the arena.
    arena_->ReleaseFrame(frame.arena_frame);
    frame = Frame{};
    free_slots_.push_back(slot);
    return read;
  }
  registry_->Count(reads_);
  frame.page = page;
  frame.dirty = (mode == AccessMode::kWrite);
  PushFront(slot);
  page_to_slot_.Insert(page, slot);
  return Payload(frame);
}

Status BufferPool::EvictVictim(uint32_t* slot) {
  const uint32_t victim = frames_[sentinel_].prev;
  assert(victim != sentinel_);
  Frame& evicted = frames_[victim];
  ODBGC_RETURN_IF_ERROR(WriteBack(evicted));
  Unlink(victim);
  page_to_slot_.Erase(evicted.page);
  evicted.page = kInvalidPageId;
  *slot = victim;  // Its frame stays attached.
  return Status::Ok();
}

Status BufferPool::WriteBack(Frame& frame) {
  if (!frame.dirty) return Status::Ok();
  ODBGC_RETURN_IF_ERROR(device_->WritePage(frame.page, Payload(frame)));
  registry_->Count(writes_);
  frame.dirty = false;
  return Status::Ok();
}

Status BufferPool::FlushAll() {
  ODBGC_DCHECK_EXCLUSIVE(&access_check_, "BufferPool::FlushAll");
  // Dirty frames in slot order — the same order the per-frame loop used,
  // so the device's request-order accounting (sequential/random
  // classification) is unchanged by batching.
  std::vector<PageWriteRequest> batch;
  std::vector<uint32_t> slots;
  for (uint32_t slot = 0; slot < sentinel_; ++slot) {
    Frame& frame = frames_[slot];
    if (frame.page == kInvalidPageId || !frame.dirty) continue;
    batch.push_back({frame.page, Payload(frame)});
    slots.push_back(slot);
  }
  if (batch.empty()) return Status::Ok();
  size_t written = 0;
  const Status status =
      device_->WritePages(batch.data(), batch.size(), &written);
  // The device accepted the first `written` requests (all of them on Ok);
  // those frames are clean now, the rest keep their dirty bit.
  for (size_t i = 0; i < written; ++i) {
    registry_->Count(writes_);
    frames_[slots[i]].dirty = false;
  }
  return status;
}

void BufferPool::PrefetchExtent(const PageExtent& extent) {
  ODBGC_DCHECK_EXCLUSIVE(&access_check_, "BufferPool::PrefetchExtent");
  if (!extent.valid()) return;
  std::vector<PageId> pages;
  pages.reserve(extent.page_count);
  for (PageId p = extent.first_page; p < extent.end_page(); ++p) {
    if (!IsResident(p)) pages.push_back(p);
  }
  if (!pages.empty()) {
    device_->Prefetch(std::span<const PageId>(pages));
  }
}

void BufferPool::DiscardExtent(const PageExtent& extent) {
  ODBGC_DCHECK_EXCLUSIVE(&access_check_, "BufferPool::DiscardExtent");
  // Discarded slots hand their frames straight back (one allocator lock
  // for the whole extent) — in a shared arena a collected partition's
  // residency becomes other tenants' headroom immediately.
  std::vector<uint32_t> released;
  for (PageId p = extent.first_page; p < extent.end_page(); ++p) {
    const uint32_t slot = page_to_slot_.Find(p);
    if (slot == OpenIndexMap::kEmptyValue) continue;
    Unlink(slot);
    page_to_slot_.Erase(p);
    released.push_back(frames_[slot].arena_frame);
    frames_[slot] = Frame{};
    free_slots_.push_back(slot);
  }
  arena_->ReleaseFrames(released);
}

void BufferPool::ReleaseArenaFrames() {
  ODBGC_DCHECK_EXCLUSIVE(&access_check_, "BufferPool::ReleaseArenaFrames");
  std::vector<uint32_t> released;
  released.reserve(page_to_slot_.size());
  for (uint32_t slot = 0; slot < sentinel_; ++slot) {
    Frame& frame = frames_[slot];
    if (frame.arena_frame != SharedFrameArena::kNoFrame) {
      released.push_back(frame.arena_frame);
    }
    frame = Frame{};
  }
  arena_->ReleaseFrames(released);
  page_to_slot_.Clear();
  ResetSlots();
}

BufferStats BufferPool::stats() const {
  BufferStats stats;
  stats.hits = hits_->total();
  stats.misses = misses_->total();
  stats.reads_app = reads_->value(MetricPhase::kApplication);
  stats.reads_gc = reads_->value(MetricPhase::kCollector);
  stats.writes_app = writes_->value(MetricPhase::kApplication);
  stats.writes_gc = writes_->value(MetricPhase::kCollector);
  return stats;
}

void BufferPool::ResetStats() {
  hits_->Reset();
  misses_->Reset();
  reads_->Reset();
  writes_->Reset();
}

bool BufferPool::IsResident(PageId page) const {
  return page_to_slot_.Contains(page);
}

bool BufferPool::IsDirty(PageId page) const {
  const uint32_t slot = page_to_slot_.Find(page);
  return slot != OpenIndexMap::kEmptyValue && frames_[slot].dirty;
}

std::vector<PageId> BufferPool::LruOrder() const {
  std::vector<PageId> order;
  order.reserve(page_to_slot_.size());
  // Bounded: a corrupt list shows up as a wrong order, not a runaway walk.
  for (uint32_t slot = frames_[sentinel_].next;
       slot != sentinel_ && order.size() <= frame_count_;
       slot = frames_[slot].next) {
    order.push_back(frames_[slot].page);
  }
  return order;
}

}  // namespace odbgc
