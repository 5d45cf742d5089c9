#include "util/epoch.h"

namespace odbgc {

EpochManager::ThreadSlot* EpochManager::RegisterThread() {
  for (size_t i = 0; i < kMaxThreads; ++i) {
    bool expected = false;
    if (slots_[i].registered_.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel)) {
      slots_[i].local_epoch_.store(kQuiescent, std::memory_order_release);
      return &slots_[i];
    }
  }
  return nullptr;
}

void EpochManager::UnregisterThread(ThreadSlot* slot) {
  slot->local_epoch_.store(kQuiescent, std::memory_order_release);
  slot->registered_.store(false, std::memory_order_release);
}

uint64_t EpochManager::SafeEpoch() const {
  // Read the global epoch BEFORE scanning the slots: a pin the scan misses
  // is validated (Pin) at an epoch at least as new as this read, and
  // anything it retires is retired under such an epoch too — so starting
  // the bound one below this read keeps it conservative.
  uint64_t safe = epoch_.load(std::memory_order_seq_cst) - 1;
  for (size_t i = 0; i < kMaxThreads; ++i) {
    if (!slots_[i].registered_.load(std::memory_order_acquire)) continue;
    const uint64_t local =
        slots_[i].local_epoch_.load(std::memory_order_seq_cst);
    if (local == kQuiescent) continue;
    if (local - 1 < safe) safe = local - 1;
  }
  // A scan lands below an earlier result only by reading a pin that is
  // still being validated: it was stored after the earlier scan read that
  // slot, so Pin's re-check sees an epoch newer than the earlier scan's and
  // republishes before its critical section starts. Such a pin protects
  // nothing yet, so the earlier result stays safe and is returned instead.
  uint64_t prev = max_safe_.load(std::memory_order_acquire);
  while (prev < safe && !max_safe_.compare_exchange_weak(
                            prev, safe, std::memory_order_acq_rel)) {
  }
  return prev < safe ? safe : prev;
}

bool EpochManager::AllQuiescent() const {
  for (size_t i = 0; i < kMaxThreads; ++i) {
    if (!slots_[i].registered_.load(std::memory_order_acquire)) continue;
    if (slots_[i].local_epoch_.load(std::memory_order_seq_cst) !=
        kQuiescent) {
      return false;
    }
  }
  return true;
}

size_t EpochManager::registered_threads() const {
  size_t count = 0;
  for (size_t i = 0; i < kMaxThreads; ++i) {
    if (slots_[i].registered_.load(std::memory_order_acquire)) ++count;
  }
  return count;
}

}  // namespace odbgc
