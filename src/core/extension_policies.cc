#include "core/extension_policies.h"

#include <algorithm>

#include "core/policies.h"

namespace odbgc {

PartitionId LeastRecentlyCollectedPolicy::Select(
    const SelectionContext& context) {
  PartitionId best = kInvalidPartition;
  uint64_t best_time = 0;
  for (PartitionId candidate : context.candidates) {
    const uint64_t time = last_collected_.Get(candidate);
    if (best == kInvalidPartition || time < best_time) {
      best = candidate;
      best_time = time;
    }
  }
  return best;
}

double LeastRecentlyCollectedPolicy::Score(PartitionId partition) const {
  const uint64_t time = last_collected_.Get(partition);
  // Higher score = better victim = longer since collected.
  return time == 0 ? static_cast<double>(clock_ + 1)
                   : static_cast<double>(clock_ - time);
}

void CostBenefitPolicy::OnPointerStore(const SlotWriteEvent& event,
                                       uint8_t /*old_target_weight*/) {
  if (event.is_overwrite() &&
      event.old_target_partition != kInvalidPartition) {
    ++overwrites_into_.At(event.old_target_partition);
  }
}

double CostBenefitPolicy::Score(PartitionId partition) const {
  const ObjectStore* store = store_ == nullptr ? nullptr : *store_;
  if (store == nullptr) {
    // No occupancy available: fall back to the raw hint count.
    return static_cast<double>(overwrites_into_.Get(partition));
  }
  if (partition >= store->partition_count()) return 0.0;
  const double allocated =
      static_cast<double>(store->partition(partition).allocated_bytes());
  if (allocated <= 0.0) return 0.0;
  const double hits = static_cast<double>(overwrites_into_.Get(partition));
  const double predicted_garbage =
      std::min(hits * bytes_per_overwrite_, allocated);
  const double live = allocated - predicted_garbage;
  // benefit/cost; a fully-garbage prediction is unbeatable.
  if (live <= 0.0) return 1e18;
  return predicted_garbage / live;
}

PartitionId CostBenefitPolicy::Select(const SelectionContext& context) {
  PartitionId best = kInvalidPartition;
  double best_score = -1.0;
  for (PartitionId candidate : context.candidates) {
    const double score = Score(candidate);
    if (best == kInvalidPartition || score > best_score) {
      best = candidate;
      best_score = score;
    }
  }
  return best;
}

}  // namespace odbgc
