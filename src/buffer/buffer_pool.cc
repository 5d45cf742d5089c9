#include "buffer/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "buffer/frame_arena.h"
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
      registry_(device ? device->metrics() : nullptr),
      frame_count_(frame_count),
      policy_(MakeReplacementPolicy(policy, frame_count)),
      frames_(frame_count),
      page_to_frame_(frame_count),
      arena_(arena),
      hits_(registry_->Register("buffer.hits")),
      misses_(registry_->Register("buffer.misses")),
      reads_(registry_->Register("buffer.disk_reads")),
      writes_(registry_->Register("buffer.disk_writes")) {
  assert(device_ != nullptr);
  assert(frame_count_ > 0);
}

void BufferPool::set_phase(IoPhase phase) {
  registry_->set_phase(ToMetricPhase(phase));
}

IoPhase BufferPool::phase() const {
  return FromMetricPhase(registry_->phase());
}

uint32_t BufferPool::AllocFrame() {
  if (!free_frames_.empty()) {
    const uint32_t frame = free_frames_.back();
    free_frames_.pop_back();
    return frame;
  }
  assert(used_frames_ < frame_count_);
  return used_frames_++;
}

Result<std::span<std::byte>> BufferPool::GetPage(PageId page,
                                                 AccessMode mode) {
  ODBGC_DCHECK_EXCLUSIVE(&access_check_, "BufferPool::GetPage");
  // The hit path — residency, counters, policy calls — is identical in
  // both modes, which is the byte-identity contract (DESIGN.md §17); only
  // where a miss finds its frame differs.
  const uint32_t resident = page_to_frame_.Find(page);
  if (resident != OpenIndexMap::kEmptyValue) {
    registry_->Count(hits_);
    policy_->OnHit(resident);
    Frame& frame = frames_[resident];
    if (mode == AccessMode::kWrite) frame.dirty = true;
    return std::span<std::byte>(FrameBytes(frame));
  }

  registry_->Count(misses_);
  if (arena_ != nullptr) return FillShared(page, mode);

  // Evict the policy's victim if the pool is full; its frame is reused
  // for the incoming page.
  uint32_t slot;
  if (resident_count_ >= frame_count_) {
    ODBGC_RETURN_IF_ERROR(EvictVictim(&slot));
  } else {
    slot = AllocFrame();
  }

  Frame& frame = frames_[slot];
  if (frame.data.empty()) frame.data.resize(device_->page_size());
  const Status read =
      device_->ReadPage(page, std::span<std::byte>(frame.data));
  if (!read.ok()) {
    // The page never became resident; return the frame to the free pool.
    free_frames_.push_back(slot);
    return read;
  }
  registry_->Count(reads_);
  frame.page = page;
  frame.dirty = (mode == AccessMode::kWrite);
  policy_->OnInsert(slot, page);
  page_to_frame_.Insert(page, slot);
  ++resident_count_;
  return std::span<std::byte>(frame.data);
}

Status BufferPool::EvictVictim(uint32_t* slot) {
  const uint32_t victim = policy_->ChooseVictim();
  Frame& evicted = frames_[victim];
  ODBGC_RETURN_IF_ERROR(WriteBack(evicted));
  policy_->OnEvict(victim);
  page_to_frame_.Erase(evicted.page);
  evicted.page = kInvalidPageId;
  --resident_count_;
  *slot = victim;  // Its frame (or borrowed arena frame) stays attached.
  return Status::Ok();
}

Result<std::span<std::byte>> BufferPool::FillShared(PageId page,
                                                    AccessMode mode) {
  uint32_t slot;
  if (resident_count_ >= frame_count_) {
    // Quota full: evict this tenant's own victim — the same decision, in
    // the same order, a private pool of frame_count_ frames would make.
    ODBGC_RETURN_IF_ERROR(EvictVictim(&slot));
  } else {
    slot = AllocFrame();
    if (frames_[slot].arena_frame == UINT32_MAX) {
      const uint32_t physical = arena_->TryAllocFrame();
      if (physical != SharedFrameArena::kNoFrame) {
        frames_[slot].arena_frame = physical;
      } else {
        // Squeeze: the arena is exhausted while this tenant is under its
        // quota (the fleet is overcommitted past the admission bound).
        // Self-evict our own victim rather than stealing another tenant's
        // frame — cross-tenant theft would wreck their determinism, not
        // just ours. Counted: invariance gates require zero squeezes.
        free_frames_.push_back(slot);
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
  }

  Frame& frame = frames_[slot];
  std::vector<std::byte>& bytes = arena_->FrameData(frame.arena_frame);
  // Frames migrate between tenants whose devices may differ in page size.
  if (bytes.size() != device_->page_size()) bytes.resize(device_->page_size());
  const Status read = device_->ReadPage(page, std::span<std::byte>(bytes));
  if (!read.ok()) {
    // The page never became resident; the slot returns to the free pool
    // and the borrowed frame goes back to the arena.
    arena_->ReleaseFrame(frame.arena_frame);
    frame.arena_frame = UINT32_MAX;
    free_frames_.push_back(slot);
    return read;
  }
  registry_->Count(reads_);
  frame.page = page;
  frame.dirty = (mode == AccessMode::kWrite);
  policy_->OnInsert(slot, page);
  page_to_frame_.Insert(page, slot);
  ++resident_count_;
  return std::span<std::byte>(bytes);
}

std::vector<std::byte>& BufferPool::FrameBytes(Frame& frame) {
  return arena_ != nullptr ? arena_->FrameData(frame.arena_frame)
                           : frame.data;
}

Status BufferPool::WriteBack(Frame& frame) {
  if (!frame.dirty) return Status::Ok();
  ODBGC_RETURN_IF_ERROR(device_->WritePage(
      frame.page, std::span<const std::byte>(FrameBytes(frame))));
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
  for (uint32_t slot = 0; slot < used_frames_; ++slot) {
    Frame& frame = frames_[slot];
    if (frame.page == kInvalidPageId || !frame.dirty) continue;
    batch.push_back(
        {frame.page, std::span<const std::byte>(FrameBytes(frame))});
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
  // In shared-arena mode discarded slots hand their borrowed frames
  // straight back (one allocator lock for the whole extent) — a collected
  // partition's residency becomes other tenants' headroom immediately.
  std::vector<uint32_t> released;
  for (PageId p = extent.first_page; p < extent.end_page(); ++p) {
    const uint32_t slot = page_to_frame_.Find(p);
    if (slot == OpenIndexMap::kEmptyValue) continue;
    policy_->OnErase(slot);
    page_to_frame_.Erase(p);
    Frame& frame = frames_[slot];
    if (frame.arena_frame != UINT32_MAX) {
      released.push_back(frame.arena_frame);
      frame.arena_frame = UINT32_MAX;
    }
    frame.page = kInvalidPageId;
    frame.dirty = false;
    free_frames_.push_back(slot);
    --resident_count_;
  }
  if (arena_ != nullptr) arena_->ReleaseFrames(released);
}

void BufferPool::ReleaseArenaFrames() {
  if (arena_ == nullptr) return;
  ODBGC_DCHECK_EXCLUSIVE(&access_check_, "BufferPool::ReleaseArenaFrames");
  std::vector<uint32_t> released;
  released.reserve(resident_count_);
  for (uint32_t slot = 0; slot < used_frames_; ++slot) {
    Frame& frame = frames_[slot];
    if (frame.arena_frame != UINT32_MAX) {
      released.push_back(frame.arena_frame);
      frame.arena_frame = UINT32_MAX;
    }
    frame.page = kInvalidPageId;
    frame.dirty = false;
  }
  arena_->ReleaseFrames(released);
  page_to_frame_.Clear();
  policy_->Clear();
  free_frames_.clear();
  used_frames_ = 0;
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
  return page_to_frame_.Contains(page);
}

bool BufferPool::IsDirty(PageId page) const {
  const uint32_t slot = page_to_frame_.Find(page);
  return slot != OpenIndexMap::kEmptyValue && frames_[slot].dirty;
}

std::vector<PageId> BufferPool::LruOrder() const { return policy_->Order(); }

void BufferPool::SaveState(std::ostream& out) const {
  // Checkpointing a shared-arena pool is unsupported (the service forbids
  // durability for its tenants); only private pools reach here.
  assert(arena_ == nullptr && "SaveState unsupported in shared-arena mode");
  PutVarint(out, frame_count_);
  PutU8(out, static_cast<uint8_t>(policy_->kind()));
  std::vector<uint32_t> resident;
  resident.reserve(resident_count_);
  for (uint32_t slot = 0; slot < used_frames_; ++slot) {
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
  if (arena_ != nullptr) {
    return Status::InvalidArgument(
        "buffer state restore is unsupported in shared-arena mode");
  }
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
  for (uint32_t slot = 0; slot < used_frames_; ++slot) {
    if (frames_[slot].page != kInvalidPageId && frames_[slot].dirty) {
      dirty_slots.push_back(slot);
    }
  }
  std::sort(dirty_slots.begin(), dirty_slots.end(),
            [this](uint32_t a, uint32_t b) {
              return frames_[a].page < frames_[b].page;
            });
  for (uint32_t slot : dirty_slots) {
    ODBGC_RETURN_IF_ERROR(device_->WritePage(
        frames_[slot].page, std::span<const std::byte>(frames_[slot].data)));
  }
  for (uint32_t slot = 0; slot < used_frames_; ++slot) {
    frames_[slot].page = kInvalidPageId;
    frames_[slot].dirty = false;
  }
  page_to_frame_.Clear();
  free_frames_.clear();
  used_frames_ = 0;
  resident_count_ = 0;
  policy_->Clear();

  // Re-fault the checkpointed residency set in page order. The policy does
  // not see these inserts — its exact state is loaded below.
  for (const auto& [page, dirty] : entries) {
    if (page_to_frame_.Contains(page)) {
      return Status::Corruption("buffer state duplicate resident page");
    }
    const uint32_t slot = AllocFrame();
    Frame& frame = frames_[slot];
    if (frame.data.empty()) frame.data.resize(device_->page_size());
    ODBGC_RETURN_IF_ERROR(
        device_->ReadPage(page, std::span<std::byte>(frame.data)));
    frame.page = page;
    frame.dirty = dirty;
    page_to_frame_.Insert(page, slot);
    ++resident_count_;
  }
  ODBGC_RETURN_IF_ERROR(policy_->Load(
      in, [this](PageId page) { return page_to_frame_.Find(page); }));

  // The loaded replacement state must track exactly the resident set (the
  // resolver already rejects non-resident pages; this catches a state
  // that tracks too few).
  if (policy_->tracked() != resident_count_) {
    return Status::Corruption("buffer state policy/residency size mismatch");
  }
  return Status::Ok();
}

}  // namespace odbgc
