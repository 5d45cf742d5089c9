#ifndef ODBGC_UTIL_EPOCH_H_
#define ODBGC_UTIL_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <cstddef>

namespace odbgc {

/// Epoch-based reclamation: the grace-period machinery behind the
/// concurrent mutator/collector mode (DESIGN.md §14).
///
/// The manager keeps one global epoch counter and a fixed array of
/// per-thread slots. A thread that wants to access epoch-protected state
/// *pins* its slot (publishing the global epoch it entered under), works,
/// and *unpins*. Resources retired under epoch E may be reclaimed once
/// the global epoch and every pinned thread have moved past E —
/// equivalently once `SafeEpoch() >= E` — because from then on no thread
/// can still hold a reference obtained in E or earlier.
///
/// The design follows the per-partition garbage-list scheme the ROADMAP
/// grounds this PR in (an `EpochManager` handing out thread slots, with
/// garbage lists gated on quiescence): threads are registered explicitly,
/// slots are cache-line padded so pin/unpin never false-shares, and
/// quiescence detection is a single scan over the slot array.
///
/// Thread-safety: all operations are safe to call concurrently. A slot
/// must be pinned/unpinned only by the thread that registered it (the
/// usual external-synchronization contract for per-thread handles).
class EpochManager {
 public:
  /// Maximum concurrently registered threads.
  static constexpr size_t kMaxThreads = 64;

  /// Local-epoch value meaning "not inside a critical section".
  static constexpr uint64_t kQuiescent = 0;

  /// One registered thread's published epoch. Obtained from
  /// RegisterThread; released with UnregisterThread.
  class ThreadSlot {
   public:
    ThreadSlot() = default;
    ThreadSlot(const ThreadSlot&) = delete;
    ThreadSlot& operator=(const ThreadSlot&) = delete;

   private:
    friend class EpochManager;
    std::atomic<uint64_t> local_epoch_{kQuiescent};
    std::atomic<bool> registered_{false};
    // Pad to a cache line: pin/unpin on one thread must not invalidate a
    // neighbouring thread's slot.
    char padding_[64 - 2 * sizeof(std::atomic<uint64_t>)];
  };

  EpochManager() = default;
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// Claims a slot for the calling thread. Returns nullptr if kMaxThreads
  /// slots are already registered.
  ThreadSlot* RegisterThread();

  /// Releases a slot (must be unpinned). The slot may be handed to a
  /// later RegisterThread caller.
  void UnregisterThread(ThreadSlot* slot);

  /// Enters a critical section: publishes the current global epoch in the
  /// slot. While pinned, nothing retired under an epoch >= the published
  /// one will be reclaimed.
  void Pin(ThreadSlot* slot) {
    // Publish, then re-read the global epoch and republish until the two
    // agree. seq_cst orders the publication against the subsequent reads
    // of protected state, and the re-check means the epoch that stays
    // published was current after the store: a SafeEpoch scan that missed
    // the store read an epoch no newer than it, so the pin cannot pull the
    // bound below what that scan returned.
    uint64_t epoch = epoch_.load(std::memory_order_seq_cst);
    for (;;) {
      slot->local_epoch_.store(epoch, std::memory_order_seq_cst);
      const uint64_t now = epoch_.load(std::memory_order_seq_cst);
      if (now == epoch) return;
      epoch = now;
    }
  }

  /// Leaves the critical section.
  void Unpin(ThreadSlot* slot) {
    slot->local_epoch_.store(kQuiescent, std::memory_order_release);
  }

  bool IsPinned(const ThreadSlot* slot) const {
    return slot->local_epoch_.load(std::memory_order_acquire) != kQuiescent;
  }

  /// The current global epoch (starts at 1; kQuiescent is never a valid
  /// epoch).
  uint64_t current_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Advances the global epoch and returns the new value. Cheap: one
  /// fetch_add; callers advance at their own cadence (the concurrent
  /// simulator ticks once per event batch).
  uint64_t BumpEpoch() {
    return epoch_.fetch_add(1, std::memory_order_seq_cst) + 1;
  }

  /// The newest epoch whose retirees are safe to reclaim: one less than
  /// the minimum of the current epoch and every pinned thread's epoch.
  /// The current epoch counts even when no thread is pinned, because a
  /// thread may pin it, and retire under it, right after the scan. Never
  /// decreases: a resource safe at one call stays safe.
  uint64_t SafeEpoch() const;

  /// True when every registered thread is quiescent (no pins). The
  /// stop-the-world condition: a caller that also keeps threads from
  /// pinning may drain everything retired so far.
  bool AllQuiescent() const;

  /// Registered thread count (diagnostics/tests).
  size_t registered_threads() const;

 private:
  std::atomic<uint64_t> epoch_{1};
  // Largest bound SafeEpoch has returned.
  mutable std::atomic<uint64_t> max_safe_{0};
  ThreadSlot slots_[kMaxThreads];
};

/// RAII pin over one slot.
class EpochGuard {
 public:
  EpochGuard(EpochManager* manager, EpochManager::ThreadSlot* slot)
      : manager_(manager), slot_(slot) {
    manager_->Pin(slot_);
  }
  ~EpochGuard() { manager_->Unpin(slot_); }
  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

 private:
  EpochManager* const manager_;
  EpochManager::ThreadSlot* const slot_;
};

}  // namespace odbgc

#endif  // ODBGC_UTIL_EPOCH_H_
