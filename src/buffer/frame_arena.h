#ifndef ODBGC_BUFFER_FRAME_ARENA_H_
#define ODBGC_BUFFER_FRAME_ARENA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

namespace odbgc {

/// The physical frames behind BufferPools (DESIGN.md §17): `frame_count`
/// page payloads handed out through a mutex-protected free list. A
/// standalone pool owns one holding exactly its quota; a multi-tenant
/// heap service gives every tenant pool the fleet's one arena, whose
/// allocator is then the only structure several tenants touch at once. A
/// frame belongs to exactly one pool at a time and its bytes are touched
/// only by that owner, so the payloads themselves need no locking.
///
/// Residency is NOT shared: each pool maps its own pages to its own
/// logical slots, and no tenant ever looks up another tenant's pages.
/// Replacement state is per pool too — the service's determinism
/// contract requires each tenant's eviction decisions (and hence its
/// hit/miss/eviction counters) to be byte-identical to a standalone run
/// of its config. A page lookup therefore takes no lock at all; only a
/// frame changing hands (a fill under quota, a discard, a release) takes
/// the allocator lock. See BufferPool for the per-pool half of the
/// protocol.
class SharedFrameArena {
 public:
  /// "No frame" sentinel for TryAllocFrame.
  static constexpr uint32_t kNoFrame = UINT32_MAX;

  /// `frame_count` > 0 physical frames.
  explicit SharedFrameArena(size_t frame_count);

  SharedFrameArena(const SharedFrameArena&) = delete;
  SharedFrameArena& operator=(const SharedFrameArena&) = delete;

  size_t frame_count() const { return frames_.size(); }

  /// Hands out a free frame, or kNoFrame when the arena is exhausted (the
  /// caller then squeezes its own quota — see BufferPool::GetPage).
  uint32_t TryAllocFrame();
  /// Returns one frame / a batch of frames to the free list.
  void ReleaseFrame(uint32_t frame);
  void ReleaseFrames(std::span<const uint32_t> frames);
  /// Frames currently attached to some pool.
  uint64_t FramesInUse() const;

  /// Payload bytes of `frame`. Only the owning pool may touch them (the
  /// ownership handoff through the allocator lock publishes the bytes).
  std::vector<std::byte>& FrameData(uint32_t frame) {
    return frames_[frame].data;
  }

  /// A pool evicted under quota because the arena was exhausted. Squeezes
  /// are deterministic at one service thread but timing-dependent across
  /// threads, so the aggregate-invariance gate only covers runs where this
  /// stays 0 (budget >= watermark + the largest tenant cap guarantees it).
  void NoteSqueezedEviction() {
    squeezed_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t squeezed_evictions() const {
    return squeezed_.load(std::memory_order_relaxed);
  }

 private:
  struct Frame {
    std::vector<std::byte> data;  // Sized lazily by the first owner.
  };

  std::vector<Frame> frames_;
  mutable std::mutex alloc_mutex_;
  std::vector<uint32_t> free_frames_;
  uint32_t used_frames_ = 0;  // High-water mark of ever-handed-out frames.

  std::atomic<uint64_t> squeezed_{0};
};

}  // namespace odbgc

#endif  // ODBGC_BUFFER_FRAME_ARENA_H_
