#include "core/policies.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/weights.h"

namespace odbgc {

namespace {

/// Argmax over candidates with deterministic tie-breaking (lowest id).
template <typename ScoreFn>
PartitionId ArgMax(const std::vector<PartitionId>& candidates,
                   ScoreFn score) {
  PartitionId best = kInvalidPartition;
  double best_score = -1.0;
  for (PartitionId p : candidates) {
    const double s = score(p);
    if (best == kInvalidPartition || s > best_score) {
      best = p;
      best_score = s;
    }
  }
  return best;
}

}  // namespace

// ---------------------------------------------------------------- Mutated

void MutatedPartitionPolicy::OnPointerStore(const SlotWriteEvent& event,
                                            uint8_t /*old_target_weight*/) {
  // "We determine if the value being written is a pointer, and if it is,
  // we increment the counter associated with the partition being written
  // into." Null stores carry no pointer value.
  if (!event.new_target.is_null()) {
    ++stores_into_partition_.At(event.source_partition);
  }
}

void MutatedPartitionPolicy::OnPartitionCollected(PartitionId partition) {
  stores_into_partition_.Reset(partition);
}

double MutatedPartitionPolicy::Score(PartitionId partition) const {
  return static_cast<double>(stores_into_partition_.Get(partition));
}

PartitionId MutatedPartitionPolicy::Select(const SelectionContext& context) {
  return ArgMax(context.candidates,
                [this](PartitionId p) { return Score(p); });
}

// ---------------------------------------------------------------- Updated

void UpdatedPointerPolicy::OnPointerStore(const SlotWriteEvent& event,
                                          uint8_t /*old_target_weight*/) {
  if (event.is_overwrite() &&
      event.old_target_partition != kInvalidPartition) {
    ++overwrites_into_partition_.At(event.old_target_partition);
  }
}

void UpdatedPointerPolicy::OnPartitionCollected(PartitionId partition) {
  overwrites_into_partition_.Reset(partition);
}

double UpdatedPointerPolicy::Score(PartitionId partition) const {
  return static_cast<double>(overwrites_into_partition_.Get(partition));
}

PartitionId UpdatedPointerPolicy::Select(const SelectionContext& context) {
  return ArgMax(context.candidates,
                [this](PartitionId p) { return Score(p); });
}

// --------------------------------------------------------------- Weighted

void WeightedPointerPolicy::OnPointerStore(const SlotWriteEvent& event,
                                           uint8_t old_target_weight) {
  if (event.is_overwrite() &&
      event.old_target_partition != kInvalidPartition) {
    assert(old_target_weight >= 1 &&
           old_target_weight <= WeightTracker::kMaxWeight);
    weighted_sum_.At(event.old_target_partition) +=
        std::exp2(WeightTracker::kMaxWeight - old_target_weight);
  }
}

void WeightedPointerPolicy::OnPartitionCollected(PartitionId partition) {
  weighted_sum_.Reset(partition);
}

double WeightedPointerPolicy::Score(PartitionId partition) const {
  return weighted_sum_.Get(partition);
}

PartitionId WeightedPointerPolicy::Select(const SelectionContext& context) {
  return ArgMax(context.candidates,
                [this](PartitionId p) { return Score(p); });
}

// ----------------------------------------------------------------- Random

PartitionId RandomPolicy::Select(const SelectionContext& context) {
  if (context.candidates.empty()) return kInvalidPartition;
  return context.candidates[rng_.UniformInt(context.candidates.size())];
}

// ------------------------------------------------------------ MostGarbage

PartitionId MostGarbagePolicy::Select(const SelectionContext& context) {
  const auto& garbage = context.garbage_bytes_per_partition;
  return ArgMax(context.candidates, [&garbage](PartitionId p) {
    return p < garbage.size() ? static_cast<double>(garbage[p]) : 0.0;
  });
}

// ----------------------------------------------------------- NoCollection

PartitionId NoCollectionPolicy::Select(const SelectionContext& /*context*/) {
  return kInvalidPartition;
}

// ---------------------------------------------------------------- Factory

std::unique_ptr<SelectionPolicy> MakePolicy(PolicyKind kind, uint64_t seed) {
  switch (kind) {
    case PolicyKind::kNoCollection:
      return std::make_unique<NoCollectionPolicy>();
    case PolicyKind::kMutatedPartition:
      return std::make_unique<MutatedPartitionPolicy>();
    case PolicyKind::kUpdatedPointer:
      return std::make_unique<UpdatedPointerPolicy>();
    case PolicyKind::kWeightedPointer:
      return std::make_unique<WeightedPointerPolicy>();
    case PolicyKind::kRandom:
      return std::make_unique<RandomPolicy>(seed);
    case PolicyKind::kMostGarbage:
      return std::make_unique<MostGarbagePolicy>();
  }
  return nullptr;
}

}  // namespace odbgc
