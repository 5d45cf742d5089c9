#ifndef ODBGC_STORAGE_READ_AHEAD_H_
#define ODBGC_STORAGE_READ_AHEAD_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "storage/page.h"

namespace odbgc {

/// A bounded staging cache for prefetched pages, consulted by FileDevice
/// on every ReadPage before touching the file. Pages enter via Install
/// (the device's prefetch batch lands here) and leave via Lookup
/// (consume-on-hit — the page is about to be pinned in the buffer pool,
/// which IS the long-term cache; keeping a second copy here would only
/// risk staleness) or Invalidate (any write to the page makes the staged
/// copy stale).
///
/// Capacity is a page count; Install evicts the oldest staged page when
/// full (prefetch traffic is forward-sequential, so oldest-first is the
/// natural victim). Not thread safe — FileDevice calls it only from the
/// device's calling thread.
class ReadAhead {
 public:
  ReadAhead(size_t page_size, size_t capacity_pages);

  /// True if `page` is currently staged.
  bool Contains(PageId page) const { return entries_.count(page) != 0; }

  /// If `page` is staged, copies it into `out`, drops the staged entry,
  /// counts a hit, and returns true. Otherwise counts a miss and returns
  /// false.
  bool Lookup(PageId page, std::span<std::byte> out);

  /// Stages the contents of `page`, evicting the oldest entry when at
  /// capacity. A page already staged is overwritten in place.
  void Install(PageId page, std::span<const std::byte> data);

  /// Drops `page` if staged (called on every write to the page).
  void Invalidate(PageId page);

  /// Drops everything staged (hit/miss counters survive).
  void Clear();

  size_t size() const { return entries_.size(); }
  size_t capacity() const { return capacity_; }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  /// Total pages ever staged via Install.
  uint64_t installed() const { return installed_; }

 private:
  struct Entry {
    std::vector<std::byte> data;
    /// Monotonic install stamp; the smallest stamp is the eviction victim.
    uint64_t stamp = 0;
  };

  void EvictOldest();

  const size_t page_size_;
  const size_t capacity_;
  std::unordered_map<PageId, Entry> entries_;
  uint64_t next_stamp_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t installed_ = 0;
};

}  // namespace odbgc

#endif  // ODBGC_STORAGE_READ_AHEAD_H_
