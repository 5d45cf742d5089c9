#ifndef ODBGC_CORE_EXTENSION_POLICIES_H_
#define ODBGC_CORE_EXTENSION_POLICIES_H_

#include <cstdint>

#include "core/partition_counters.h"
#include "core/selection_policy.h"
#include "odb/object_store.h"

namespace odbgc {

/// Extension policies beyond the paper's six, built on the same
/// SelectionPolicy interface. Pre-registered in the policy registry under
/// their `name()` ("LeastRecentlyCollected", "CostBenefit"), so they are
/// selectable anywhere a built-in is (HeapOptions::policy_name,
/// ExperimentSpec, odbgc-report). They represent the obvious neighbours in
/// the design space that later storage-reclamation literature explored,
/// and serve as additional baselines for the `extension_policies` bench.
///
/// Both return kind() == kUpdatedPointer: that is the *behaviour class*
/// they want from the heap (normal trigger, no oracle census) — their
/// identity is the name.

/// Collects partitions in least-recently-collected order — the fairness
/// baseline (every partition eventually gets collected, no hints used).
/// Never-collected partitions go first, lowest id first.
class LeastRecentlyCollectedPolicy : public SelectionPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kUpdatedPointer; }
  std::string name() const override { return "LeastRecentlyCollected"; }
  void OnPartitionCollected(PartitionId partition) override {
    last_collected_.At(partition) = ++clock_;
  }
  PartitionId Select(const SelectionContext& context) override;
  double Score(PartitionId partition) const override;
  void SaveState(std::ostream& out) const override;
  Status LoadState(std::istream& in) override;

 private:
  uint64_t clock_ = 0;
  // Timestamp of each partition's last collection; 0 = never collected
  // (collection stamps are always >= 1).
  PartitionCounterTable<uint64_t> last_collected_;
};

/// An LFS-style cost-benefit policy (Rosenblum & Ousterhout's segment
/// cleaning heuristic transplanted to partition selection): benefit is the
/// garbage the overwritten-pointer hints predict, cost is copying the
/// partition's remaining live data, and the victim maximizes
///
///     benefit / cost  =  predicted_garbage / (allocated - predicted_garbage)
///
/// where predicted_garbage = overwrite hits into the partition since its
/// last collection x the expected bytes freed per overwrite. Unlike
/// UpdatedPointer's raw count, a nearly-full partition needs
/// proportionally more hints to win than a sparse one.
///
/// Needs the store for partition occupancy (a DBA-visible quantity); the
/// heap binds it through PolicyContext::store (or a factory closure).
class CostBenefitPolicy : public SelectionPolicy {
 public:
  /// `store` is bound by the caller (may dereference lazily; must outlive
  /// the policy). A null slot (or a slot holding null) degrades to ranking
  /// by raw overwrite hits — i.e. plain UpdatedPointer behaviour — so the
  /// policy stays usable where no store is available.
  /// `bytes_per_overwrite` calibrates predicted garbage; the base workload
  /// frees ~1.2 KB per overwritten pointer (a ~12-object subtree of
  /// ~100-byte objects).
  explicit CostBenefitPolicy(const ObjectStore* const* store,
                             double bytes_per_overwrite = 1200.0)
      : store_(store), bytes_per_overwrite_(bytes_per_overwrite) {}

  PolicyKind kind() const override { return PolicyKind::kUpdatedPointer; }
  std::string name() const override { return "CostBenefit"; }
  void OnPointerStore(const SlotWriteEvent& event,
                      uint8_t old_target_weight) override;
  void OnPartitionCollected(PartitionId partition) override {
    overwrites_into_.Reset(partition);
  }
  PartitionId Select(const SelectionContext& context) override;
  double Score(PartitionId partition) const override;
  void SaveState(std::ostream& out) const override;
  Status LoadState(std::istream& in) override;

 private:
  const ObjectStore* const* store_;
  const double bytes_per_overwrite_;
  PartitionCounterTable<uint64_t> overwrites_into_;
};

}  // namespace odbgc

#endif  // ODBGC_CORE_EXTENSION_POLICIES_H_
