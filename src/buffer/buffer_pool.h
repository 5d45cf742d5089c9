#ifndef ODBGC_BUFFER_BUFFER_POOL_H_
#define ODBGC_BUFFER_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "buffer/frame_arena.h"
#include "buffer/replacement_policy.h"
#include "storage/extent.h"
#include "storage/page.h"
#include "storage/page_device.h"
#include "util/access_check.h"
#include "util/metrics_registry.h"
#include "util/open_hash_map.h"
#include "util/status.h"

namespace odbgc {

/// Who is driving I/O right now. The paper reports "Application I/Os" and
/// "Collector I/Os" separately (Table 2); the pool attributes each device
/// transfer to the phase that was active when it happened.
enum class IoPhase { kApplication, kCollector };

/// Access intent for a page fetch.
enum class AccessMode { kRead, kWrite };

/// Snapshot of the pool's counters, split by phase. Derived from the
/// metrics registry on each call to `stats()`; kept as a struct so report
/// code and tests read plain fields.
struct BufferStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  /// Device page reads (fills on miss), per phase.
  uint64_t reads_app = 0;
  uint64_t reads_gc = 0;
  /// Device page writes (write-back of dirty pages), per phase.
  uint64_t writes_app = 0;
  uint64_t writes_gc = 0;

  uint64_t app_io() const { return reads_app + writes_app; }
  uint64_t gc_io() const { return reads_gc + writes_gc; }
  uint64_t total_io() const { return app_io() + gc_io(); }
};

/// A fixed-capacity database I/O buffer with pluggable replacement and
/// write-back (dirty pages reach the device only on eviction or flush).
/// Strict LRU is the default and matches the paper's cost model
/// (Section 4.2) exactly.
///
/// `GetPage` returns a span into a frame, valid only until the next call
/// that may evict (any GetPage). This is the single point through which
/// the object store and collector touch pages, so its counters are the
/// experiment's I/O measurement. Counters live in the device's
/// MetricsRegistry ("buffer.*" names); `stats()` snapshots them.
///
/// Frames (DESIGN.md §17): `frame_count` is the pool's quota of logical
/// slots. Replacement state, the page→slot residency map and every
/// counter run over those slots; each resident slot borrows one physical
/// frame from a SharedFrameArena and caches the frame's payload pointer,
/// so a hit never touches the arena. A pool constructed without an arena
/// owns one of exactly `frame_count` frames, which never runs dry; the
/// multi-tenant service hands every tenant pool the fleet's one arena.
/// Where the frame comes from never changes a decision, which is what
/// makes an unpressured tenant's result byte-identical to a standalone
/// run of its config.
///
/// Threading: single-owner. The pool has no internal locking; exactly one
/// thread may be inside its methods at a time. Handing an idle pool from
/// one thread to another (with a happens-before edge, as the service's
/// fork-join rounds do for whole heaps) is fine. Debug builds enforce
/// this with an ExclusiveAccessCheck — two threads caught inside mutating
/// methods at once abort rather than corrupt the frame table silently.
/// Only the arena's frame allocator is touched by several pools at once.
class BufferPool {
 public:
  /// `device` must outlive the pool. `frame_count` > 0 frames of
  /// device->page_size() bytes each. Frames come from `arena` when it is
  /// non-null (it must then outlive the pool), else from an arena of
  /// `frame_count` frames the pool owns.
  BufferPool(PageDevice* device, size_t frame_count,
             ReplacementPolicyKind policy = ReplacementPolicyKind::kLru,
             SharedFrameArena* arena = nullptr);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Fetches `page` into the pool (reading from the device on a miss,
  /// evicting the policy's victim if full), notifies the replacement
  /// policy, marks it dirty if `mode` is kWrite, and returns its bytes.
  ///
  /// Returns OutOfRange if the page does not exist on the device.
  Result<std::span<std::byte>> GetPage(PageId page, AccessMode mode);

  /// Writes all dirty frames back to the device (counted in the current
  /// phase) as one WritePages batch — a real-I/O backend fans the batch
  /// out over its executors and fsyncs once at the end; counters are
  /// identical to per-frame write-back. Frames stay resident and become
  /// clean.
  Status FlushAll();

  /// Hints the device that `extent` is about to be scanned (the collector
  /// announces its victim before the copy traversal). Pages already
  /// resident are filtered out — those reads hit the pool, not the device.
  /// Advisory and free of simulated I/O: backends without read-ahead
  /// ignore it.
  void PrefetchExtent(const PageExtent& extent);

  /// Drops any resident frames covering `extent` *without* write-back.
  /// Used when a partition's contents have been discarded wholesale (its
  /// garbage does not deserve the write I/O). Dirty data is lost by design.
  void DiscardExtent(const PageExtent& extent);

  /// Sets the accounting phase for subsequent transfers. The phase lives in
  /// the metrics registry, so device-level counters attribute to the same
  /// phase.
  void set_phase(IoPhase phase);
  IoPhase phase() const;

  BufferStats stats() const;
  void ResetStats();

  ReplacementPolicyKind replacement() const { return policy_->kind(); }
  MetricsRegistry* metrics() const { return registry_; }

  size_t frame_count() const { return frame_count_; }
  size_t resident_pages() const { return resident_count_; }

  /// Evictions this pool performed *under* quota because a shared arena
  /// had no free frame (always 0 with an arena of its own; see
  /// SharedFrameArena).
  uint64_t squeezed_evictions() const { return squeezed_evictions_; }

  /// Drops every resident page without write-back or counter traffic and
  /// returns the borrowed frames to the arena. The service calls this when
  /// a tenant finishes or departs, so parked residency never pins physical
  /// frames against live tenants.
  void ReleaseArenaFrames();

  /// True if `page` is currently resident (test/inspection helper; does not
  /// touch replacement order or counters).
  bool IsResident(PageId page) const;

  /// True if `page` is resident and dirty (test/inspection helper).
  bool IsDirty(PageId page) const;

  /// Resident pages in the policy's replacement order (for strict LRU,
  /// most recent first — see ReplacementPolicy::Order).
  std::vector<PageId> LruOrder() const;

 private:
  /// One fixed slot of the pool. `page` is kInvalidPageId while the slot
  /// is free. A resident slot holds the arena frame `arena_frame` and
  /// caches its payload in `bytes`; a free slot holds no frame.
  struct Frame {
    std::byte* bytes = nullptr;
    PageId page = kInvalidPageId;
    uint32_t arena_frame = SharedFrameArena::kNoFrame;
    bool dirty = false;
  };

  std::span<std::byte> Payload(const Frame& frame) const {
    return {frame.bytes, page_size_};
  }

  // Writes back `frame` if dirty (charging the current phase).
  Status WriteBack(Frame& frame);

  // Picks the slot for a new resident page: a recycled free slot if one
  // exists, else the next never-used one. The caller evicts first when
  // the pool is full.
  uint32_t AllocSlot();

  // Borrows a frame from the arena for `frame`, sized to the device's
  // pages. False when the arena has none free.
  bool AttachFrame(Frame& frame);

  // Evicts the slot the policy chose (write-back, policy + residency
  // drop) and returns it for reuse with its frame still attached.
  Status EvictVictim(uint32_t* slot);

  PageDevice* const device_;
  MetricsRegistry* const registry_;
  const size_t page_size_;
  const size_t frame_count_;
  std::unique_ptr<ReplacementPolicy> policy_;

  /// The slot array plus an open-addressed page→slot index: residency
  /// lookup is a couple of linear probes into a flat slot array.
  std::vector<Frame> frames_;
  OpenIndexMap page_to_slot_;
  std::vector<uint32_t> free_slots_;
  uint32_t used_slots_ = 0;  // High-water mark of ever-touched slots.
  size_t resident_count_ = 0;

  /// The physical frames: the arena given at construction, or
  /// `owned_arena_`.
  std::unique_ptr<SharedFrameArena> owned_arena_;
  SharedFrameArena* const arena_;
  uint64_t squeezed_evictions_ = 0;

  MetricCounter* const hits_;
  MetricCounter* const misses_;
  MetricCounter* const reads_;
  MetricCounter* const writes_;

  // Debug-build single-owner enforcement (see class comment). Mutable so
  // logically-const inspectors can participate in the check.
  mutable ExclusiveAccessCheck access_check_;
};

/// RAII helper that switches the pool's accounting phase and restores the
/// previous phase on destruction. The collector wraps its work in
/// `PhaseScope scope(pool, IoPhase::kCollector);`.
class PhaseScope {
 public:
  PhaseScope(BufferPool* pool, IoPhase phase)
      : pool_(pool), saved_(pool->phase()) {
    pool_->set_phase(phase);
  }
  ~PhaseScope() { pool_->set_phase(saved_); }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  BufferPool* const pool_;
  const IoPhase saved_;
};

}  // namespace odbgc

#endif  // ODBGC_BUFFER_BUFFER_POOL_H_
