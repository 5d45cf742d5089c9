#ifndef ODBGC_BUFFER_REPLACEMENT_POLICY_H_
#define ODBGC_BUFFER_REPLACEMENT_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "storage/page.h"

namespace odbgc {

/// Which eviction decision the buffer pool runs. Strict LRU is the
/// paper's cost model (Section 4.2) and the default; the alternatives
/// exist because cache behavior interacts with the collector's access
/// pattern (a collection scans a whole partition, which pollutes an LRU
/// buffer but not a scan-resistant one).
enum class ReplacementPolicyKind : uint8_t {
  kLru = 0,    ///< Strict least-recently-used (the paper).
  kClock = 1,  ///< Second-chance clock (one ref bit, sweeping hand).
  kTwoQ = 2,   ///< 2Q: FIFO probation + ghost list + protected LRU.
};

const char* ReplacementPolicyName(ReplacementPolicyKind kind);

/// The eviction decision of a BufferPool, extracted so backends can be
/// swapped without touching the pool's fetch/write-back machinery. The
/// pool owns frames, dirty bits and I/O; the policy only tracks which
/// resident frame to victimize next.
///
/// Policies are addressed by *frame index* (the pool's fixed frame
/// array), not by page id: recency/ring/queue membership lives in
/// intrusive index-linked lists over a flat per-frame node array, so a
/// hit or insert is a couple of indexed stores with no hashing or node
/// allocation. The page id is recorded per frame at OnInsert purely so
/// Order() can speak the page-level language the tests use.
///
/// The pool guarantees: OnInsert for every frame becoming resident,
/// OnHit for every access to a resident frame, exactly one of
/// OnEvict/OnErase when a frame's page leaves, and ChooseVictim only
/// when at least one frame is resident. Implementations must be
/// deterministic — runs are compared across thread counts.
class ReplacementPolicy {
 public:
  using FrameIndex = uint32_t;

  virtual ~ReplacementPolicy() = default;

  virtual ReplacementPolicyKind kind() const = 0;

  /// `page` became resident in `frame` (miss fill).
  virtual void OnInsert(FrameIndex frame, PageId page) = 0;

  /// Resident `frame` was accessed again.
  virtual void OnHit(FrameIndex frame) = 0;

  /// Picks the frame to evict. May mutate scan state (the clock hand)
  /// but must leave the chosen frame tracked until OnEvict/OnErase
  /// removes it.
  virtual FrameIndex ChooseVictim() = 0;

  /// `frame`'s page was evicted by replacement (2Q remembers it in the
  /// ghost list). Default: same as OnErase.
  virtual void OnEvict(FrameIndex frame) { OnErase(frame); }

  /// `frame`'s page was removed without eviction semantics
  /// (DiscardExtent).
  virtual void OnErase(FrameIndex frame) = 0;

  /// Resident pages, most-recently-valuable first. For LRU this is exact
  /// MRU→LRU order; other policies document their own order. The last
  /// entry is always the current victim candidate's region.
  virtual std::vector<PageId> Order() const = 0;

  /// Drops all state (residency went away wholesale).
  virtual void Clear() = 0;
};

/// Constructs the given policy for a pool of `frame_count` frames.
std::unique_ptr<ReplacementPolicy> MakeReplacementPolicy(
    ReplacementPolicyKind kind, size_t frame_count);

}  // namespace odbgc

#endif  // ODBGC_BUFFER_REPLACEMENT_POLICY_H_
