#include "core/weights.h"

#include <algorithm>
#include <deque>
#include <utility>
#include <vector>


namespace odbgc {

Status WeightTracker::OnRootAdded(ObjectId object) {
  return Relax(object, kRootWeight);
}

Status WeightTracker::OnPointerStored(ObjectId source, ObjectId target) {
  if (target.is_null()) return Status::Ok();
  const uint8_t sw = GetWeight(source);
  const uint8_t candidate =
      sw >= kMaxWeight ? kMaxWeight : static_cast<uint8_t>(sw + 1);
  return Relax(target, candidate);
}

void WeightTracker::SetWeight(ObjectId object, uint8_t w) {
  if (object.value >= weights_.size()) {
    // Size to the store's id horizon so repeated first-touches of fresh
    // ids do not each pay a resize.
    weights_.resize(std::max(object.value + 1, store_->id_limit()),
                    kMaxWeight);
  }
  if (weights_[object.value] == kMaxWeight) ++tracked_;
  weights_[object.value] = w;
}

Status WeightTracker::Relax(ObjectId object, uint8_t w) {
  if (object.is_null() || w >= GetWeight(object)) return Status::Ok();

  std::deque<std::pair<ObjectId, uint8_t>> queue;
  queue.push_back({object, w});
  while (!queue.empty()) {
    auto [id, weight] = queue.front();
    queue.pop_front();
    if (weight >= GetWeight(id)) continue;
    SetWeight(id, weight);
    if (charge_io_) {
      // The 4-bit weight lives in the object header on its page.
      ODBGC_RETURN_IF_ERROR(store_->TouchHeader(id, AccessMode::kWrite));
    }
    if (weight + 1 >= kMaxWeight) continue;  // Children can't improve.
    const ObjectStore::ObjectInfo* info = store_->Lookup(id);
    if (info == nullptr) continue;
    const uint8_t next = static_cast<uint8_t>(weight + 1);
    for (ObjectId child : info->slots) {
      if (!child.is_null() && next < GetWeight(child)) {
        queue.push_back({child, next});
      }
    }
  }
  return Status::Ok();
}

}  // namespace odbgc
