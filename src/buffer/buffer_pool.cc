#include "buffer/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "util/serde.h"

namespace odbgc {

namespace {

MetricPhase ToMetricPhase(IoPhase phase) {
  return phase == IoPhase::kApplication ? MetricPhase::kApplication
                                        : MetricPhase::kCollector;
}

IoPhase FromMetricPhase(MetricPhase phase) {
  return phase == MetricPhase::kApplication ? IoPhase::kApplication
                                            : IoPhase::kCollector;
}

}  // namespace

BufferPool::BufferPool(PageDevice* device, size_t frame_count,
                       ReplacementPolicyKind policy, SharedFrameArena* arena)
    : device_(device),
      registry_(device->metrics()),
      page_size_(device->page_size()),
      frame_count_(frame_count),
      policy_(MakeReplacementPolicy(policy, frame_count)),
      frames_(frame_count),
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
}

void BufferPool::set_phase(IoPhase phase) {
  registry_->set_phase(ToMetricPhase(phase));
}

IoPhase BufferPool::phase() const {
  return FromMetricPhase(registry_->phase());
}

uint32_t BufferPool::AllocSlot() {
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  assert(used_slots_ < frame_count_);
  return used_slots_++;
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
    policy_->OnHit(resident);
    Frame& frame = frames_[resident];
    if (mode == AccessMode::kWrite) frame.dirty = true;
    return Payload(frame);
  }

  registry_->Count(misses_);
  uint32_t slot;
  if (resident_count_ >= frame_count_) {
    // Quota full: evict the policy's victim; its frame is reused for the
    // incoming page.
    ODBGC_RETURN_IF_ERROR(EvictVictim(&slot));
  } else {
    slot = AllocSlot();
    if (!AttachFrame(frames_[slot])) {
      // Squeeze: a shared arena is exhausted while this pool is under its
      // quota (the fleet is overcommitted past the admission bound; an
      // arena the pool owns always has a frame per free slot). Self-evict
      // our own victim rather than stealing another tenant's frame —
      // cross-tenant theft would wreck their determinism, not just ours.
      // Counted: invariance gates require zero squeezes.
      free_slots_.push_back(slot);
      if (resident_count_ == 0) {
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
  policy_->OnInsert(slot, page);
  page_to_slot_.Insert(page, slot);
  ++resident_count_;
  return Payload(frame);
}

Status BufferPool::EvictVictim(uint32_t* slot) {
  const uint32_t victim = policy_->ChooseVictim();
  Frame& evicted = frames_[victim];
  ODBGC_RETURN_IF_ERROR(WriteBack(evicted));
  policy_->OnEvict(victim);
  page_to_slot_.Erase(evicted.page);
  evicted.page = kInvalidPageId;
  --resident_count_;
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
  // classification, fault schedule) is unchanged by batching.
  std::vector<PageWriteRequest> batch;
  std::vector<uint32_t> slots;
  for (uint32_t slot = 0; slot < used_slots_; ++slot) {
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
    policy_->OnErase(slot);
    page_to_slot_.Erase(p);
    released.push_back(frames_[slot].arena_frame);
    frames_[slot] = Frame{};
    free_slots_.push_back(slot);
    --resident_count_;
  }
  arena_->ReleaseFrames(released);
}

void BufferPool::ReleaseArenaFrames() {
  ODBGC_DCHECK_EXCLUSIVE(&access_check_, "BufferPool::ReleaseArenaFrames");
  std::vector<uint32_t> released;
  released.reserve(resident_count_);
  for (uint32_t slot = 0; slot < used_slots_; ++slot) {
    Frame& frame = frames_[slot];
    if (frame.arena_frame != SharedFrameArena::kNoFrame) {
      released.push_back(frame.arena_frame);
    }
    frame = Frame{};
  }
  arena_->ReleaseFrames(released);
  page_to_slot_.Clear();
  policy_->Clear();
  free_slots_.clear();
  used_slots_ = 0;
  resident_count_ = 0;
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

std::vector<PageId> BufferPool::LruOrder() const { return policy_->Order(); }

void BufferPool::SaveState(std::ostream& out) const {
  PutVarint(out, frame_count_);
  PutU8(out, static_cast<uint8_t>(policy_->kind()));
  std::vector<uint32_t> resident;
  resident.reserve(resident_count_);
  for (uint32_t slot = 0; slot < used_slots_; ++slot) {
    if (frames_[slot].page != kInvalidPageId) resident.push_back(slot);
  }
  std::sort(resident.begin(), resident.end(),
            [this](uint32_t a, uint32_t b) {
              return frames_[a].page < frames_[b].page;
            });
  PutVarint(out, resident.size());
  for (uint32_t slot : resident) {
    PutVarint(out, frames_[slot].page);
    PutBool(out, frames_[slot].dirty);
  }
  policy_->Save(out);
}

Status BufferPool::LoadState(std::istream& in) {
  ODBGC_DCHECK_EXCLUSIVE(&access_check_, "BufferPool::LoadState");
  auto frame_count = GetVarint(in);
  ODBGC_RETURN_IF_ERROR(frame_count.status());
  if (*frame_count != frame_count_) {
    return Status::Corruption("buffer state frame count mismatch");
  }
  auto kind = GetU8(in);
  ODBGC_RETURN_IF_ERROR(kind.status());
  if (*kind != static_cast<uint8_t>(policy_->kind())) {
    return Status::Corruption("buffer state replacement policy mismatch");
  }
  auto resident = GetVarint(in);
  ODBGC_RETURN_IF_ERROR(resident.status());
  if (*resident > frame_count_) {
    return Status::Corruption("buffer state resident count exceeds capacity");
  }
  std::vector<std::pair<PageId, bool>> entries;
  entries.reserve(*resident);
  for (uint64_t i = 0; i < *resident; ++i) {
    auto page = GetVarint(in);
    ODBGC_RETURN_IF_ERROR(page.status());
    auto dirty = GetBool(in);
    ODBGC_RETURN_IF_ERROR(dirty.status());
    entries.emplace_back(*page, *dirty);
  }

  // Persist current dirty frames so the device holds their rematerialized
  // bytes before residency changes. Sorted order keeps restoration
  // deterministic; the transfers perturb device-model state and counters,
  // which the heap restores after this call.
  std::vector<uint32_t> dirty_slots;
  for (uint32_t slot = 0; slot < used_slots_; ++slot) {
    if (frames_[slot].page != kInvalidPageId && frames_[slot].dirty) {
      dirty_slots.push_back(slot);
    }
  }
  std::sort(dirty_slots.begin(), dirty_slots.end(),
            [this](uint32_t a, uint32_t b) {
              return frames_[a].page < frames_[b].page;
            });
  for (uint32_t slot : dirty_slots) {
    ODBGC_RETURN_IF_ERROR(
        device_->WritePage(frames_[slot].page, Payload(frames_[slot])));
  }
  ReleaseArenaFrames();

  // Re-fault the checkpointed residency set in page order. The policy does
  // not see these inserts — its exact state is loaded below.
  for (const auto& [page, dirty] : entries) {
    if (page_to_slot_.Contains(page)) {
      return Status::Corruption("buffer state duplicate resident page");
    }
    const uint32_t slot = AllocSlot();
    Frame& frame = frames_[slot];
    if (!AttachFrame(frame)) {
      return Status::ResourceExhausted(
          "frame arena cannot hold the restored buffer residency");
    }
    ODBGC_RETURN_IF_ERROR(device_->ReadPage(page, Payload(frame)));
    frame.page = page;
    frame.dirty = dirty;
    page_to_slot_.Insert(page, slot);
    ++resident_count_;
  }
  ODBGC_RETURN_IF_ERROR(policy_->Load(
      in, [this](PageId page) { return page_to_slot_.Find(page); }));

  // The loaded replacement state must track exactly the resident set (the
  // resolver already rejects non-resident pages; this catches a state
  // that tracks too few).
  if (policy_->tracked() != resident_count_) {
    return Status::Corruption("buffer state policy/residency size mismatch");
  }
  return Status::Ok();
}

}  // namespace odbgc
