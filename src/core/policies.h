#ifndef ODBGC_CORE_POLICIES_H_
#define ODBGC_CORE_POLICIES_H_

#include "core/partition_counters.h"
#include "core/selection_policy.h"
#include "util/random.h"

namespace odbgc {

/// Selects the partition into which the most pointers were stored since
/// its last collection. Counts *every* pointer store (including slot
/// initialization during object creation) — the paper identifies exactly
/// this failure to distinguish creation stores from overwrites as one of
/// the two reasons the policy guesses poorly.
class MutatedPartitionPolicy : public SelectionPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kMutatedPartition; }
  void OnPointerStore(const SlotWriteEvent& event,
                      uint8_t old_target_weight) override;
  void OnPartitionCollected(PartitionId partition) override;
  PartitionId Select(const SelectionContext& context) override;
  double Score(PartitionId partition) const override;

 private:
  PartitionCounterTable<uint64_t> stores_into_partition_;
};

/// Selects the partition into which the most *overwritten* pointers
/// pointed — overwriting a pointer is a hint that its old target (and
/// whatever hangs off it) may now be garbage. The paper's best
/// implementable policy.
class UpdatedPointerPolicy : public SelectionPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kUpdatedPointer; }
  void OnPointerStore(const SlotWriteEvent& event,
                      uint8_t old_target_weight) override;
  void OnPartitionCollected(PartitionId partition) override;
  PartitionId Select(const SelectionContext& context) override;
  double Score(PartitionId partition) const override;

 private:
  PartitionCounterTable<uint64_t> overwrites_into_partition_;
};

/// UpdatedPointer refined by root distance: an overwrite of a pointer to an
/// object with weight w adds 2^(16-w) to the old target's partition, so
/// severing a near-root edge (which orphans a whole subtree in a tree-like
/// database) counts exponentially more than snipping a leaf edge.
class WeightedPointerPolicy : public SelectionPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kWeightedPointer; }
  void OnPointerStore(const SlotWriteEvent& event,
                      uint8_t old_target_weight) override;
  void OnPartitionCollected(PartitionId partition) override;
  PartitionId Select(const SelectionContext& context) override;
  double Score(PartitionId partition) const override;

 private:
  PartitionCounterTable<double> weighted_sum_;
};

/// Uniformly random choice among the candidates — the paper's control for
/// how much the clever heuristics actually help.
class RandomPolicy : public SelectionPolicy {
 public:
  explicit RandomPolicy(uint64_t seed) : rng_(seed) {}
  PolicyKind kind() const override { return PolicyKind::kRandom; }
  PartitionId Select(const SelectionContext& context) override;

 private:
  Rng rng_;
};

/// Oracle policy: picks the candidate with the most actual garbage, from
/// the census the simulator runs before each selection. Near-optimal but
/// (outside a simulator) impossible to implement; used as the upper
/// performance bound. Note the paper's caveat: greedily optimal per
/// collection, not globally optimal over a whole run.
class MostGarbagePolicy : public SelectionPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kMostGarbage; }
  PartitionId Select(const SelectionContext& context) override;
};

/// Never collects. The heap additionally disables the trigger for this
/// kind; Select always declines.
class NoCollectionPolicy : public SelectionPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kNoCollection; }
  PartitionId Select(const SelectionContext& context) override;
};

}  // namespace odbgc

#endif  // ODBGC_CORE_POLICIES_H_
