#ifndef ODBGC_SERVICE_POOL_BUDGET_H_
#define ODBGC_SERVICE_POOL_BUDGET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace odbgc {

/// Frame accounting for a shared buffer budget across N single-owner
/// tenant pools (service/heap_service.h). Each tenant heap keeps its own
/// BufferPool — its residency and replacement decisions, which is what
/// preserves per-tenant determinism — while the frames come from the
/// fleet's one arena and the *budget* is global: the service refreshes
/// each tenant's residency here at its round barriers, and the admission
/// controller and cross-tenant scheduler read occupancy, per-tenant
/// headroom and pressure from this one ledger.
///
/// Pure deterministic accounting: no locking, no clocks. All mutation
/// happens at the service's barriers (single-threaded by construction), so
/// every number is a pure function of the simulated run.
class SharedPoolBudget {
 public:
  SharedPoolBudget() = default;

  /// Sizes the ledger. `total_frames` is the shared budget;
  /// `watermark_fraction` in (0, 1] arms admission control at
  /// floor(fraction x total) frames, <= 0 disables it (watermark 0).
  void Configure(uint64_t total_frames, double watermark_fraction,
                 size_t tenant_count);

  /// Refreshes one tenant's slice (resident frames and its pool cap).
  void Update(size_t tenant, uint64_t resident_frames, uint64_t frame_cap);

  /// Records the current occupancy (global and per tenant) into the peaks
  /// if higher. Called at consistent barrier points so the peaks are
  /// comparable across runs.
  void NotePeak();

  uint64_t total_frames() const { return total_frames_; }
  uint64_t watermark_frames() const { return watermark_frames_; }
  /// True when a watermark is armed (admission control + scheduler on).
  bool enabled() const { return watermark_frames_ > 0; }

  /// Resident frames across all tenants right now.
  uint64_t occupancy() const { return occupancy_; }
  /// Highest occupancy NotePeak has seen.
  uint64_t peak_occupancy() const { return peak_occupancy_; }
  /// True while occupancy is at or above the armed watermark.
  bool OverWatermark() const {
    return enabled() && occupancy_ >= watermark_frames_;
  }

  uint64_t resident(size_t tenant) const { return resident_[tenant]; }
  /// Highest residency NotePeak has seen for this tenant (the per-tenant
  /// column of the occupancy story — odbgc-report's tenants table).
  uint64_t peak_resident(size_t tenant) const { return peak_resident_[tenant]; }
  uint64_t cap(size_t tenant) const { return cap_[tenant]; }
  /// Frames tenant's pool could still grow by in one round (cap -
  /// resident) — the admission controller's projection unit.
  uint64_t Allowance(size_t tenant) const {
    return cap_[tenant] > resident_[tenant] ? cap_[tenant] - resident_[tenant]
                                            : 0;
  }
  /// resident/cap in [0, 1] (0 for an unsized pool).
  double TenantPressure(size_t tenant) const;

  size_t tenant_count() const { return resident_.size(); }

 private:
  uint64_t total_frames_ = 0;
  uint64_t watermark_frames_ = 0;
  uint64_t occupancy_ = 0;
  uint64_t peak_occupancy_ = 0;
  std::vector<uint64_t> resident_;
  std::vector<uint64_t> peak_resident_;
  std::vector<uint64_t> cap_;
};

}  // namespace odbgc

#endif  // ODBGC_SERVICE_POOL_BUDGET_H_
