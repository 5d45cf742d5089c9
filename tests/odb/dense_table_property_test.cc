// Equivalence property test for the slot-addressed object table: a
// reference model built on the node-based containers the table replaced
// (per-id hash map, offset-sorted map rosters, swap-with-last root
// vector) is driven through the same randomized alloc / free / move /
// collect / root / slot-write sequences as the real store, and every
// observable — lookup results for every id ever issued, the exact root
// vector, and per-partition occupancy and rosters — must agree at every
// step. This pins the dense layout (id directory, slot recycling,
// root_pos, append-only vector rosters) to the old semantics
// independently of the byte-identity harness.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "odb/object_layout.h"
#include "odb/object_store.h"
#include "storage/disk.h"
#include "util/random.h"

namespace odbgc {
namespace {

/// The old map-based object table, reduced to its observable behavior.
/// Placement (which partition, which offset) is the store's decision and
/// is recorded at allocation time; everything after that — bump
/// pointers, rosters, liveness, roots, shadow slots — the model evolves
/// on its own and must stay in lockstep with the dense implementation.
/// A roster lists every placement since the partition's last reset: a
/// drop or a relocation away only lowers the partition's live count.
class MapModel {
 public:
  struct Object {
    PartitionId partition = kInvalidPartition;
    uint32_t offset = 0;
    uint32_t size = 0;
    uint32_t num_slots = 0;
    std::vector<ObjectId> slots;
  };

  explicit MapModel(size_t partition_bytes)
      : partition_bytes_(partition_bytes) {}

  void OnPartitionAdded() {
    alloc_offsets_.push_back(0);
    live_counts_.push_back(0);
    rosters_.emplace_back();
  }

  void OnAllocate(ObjectId id, PartitionId partition, uint32_t offset,
                  uint32_t size, uint32_t num_slots) {
    Object object;
    object.partition = partition;
    object.offset = offset;
    object.size = size;
    object.num_slots = num_slots;
    object.slots.assign(num_slots, kNullObjectId);
    ASSERT_TRUE(table_.emplace(id.value, std::move(object)).second);
    ASSERT_EQ(alloc_offsets_[partition], offset)
        << "store bump pointer diverged from the model";
    alloc_offsets_[partition] += size;
    rosters_[partition][offset] = id;
    ++live_counts_[partition];
  }

  void OnDrop(ObjectId id) {
    auto it = table_.find(id.value);
    ASSERT_NE(it, table_.end());
    --live_counts_[it->second.partition];
    table_.erase(it);
  }

  /// Returns the offset the relocation must land at (the target's bump
  /// pointer, exactly as the store computes it).
  uint32_t OnRelocate(ObjectId id, PartitionId target) {
    Object& object = table_.at(id.value);
    const uint32_t new_offset = alloc_offsets_[target];
    alloc_offsets_[target] += object.size;
    --live_counts_[object.partition];
    object.partition = target;
    object.offset = new_offset;
    rosters_[target][new_offset] = id;
    ++live_counts_[target];
    return new_offset;
  }

  void OnSwapEmpty(PartitionId partition) {
    ASSERT_EQ(live_counts_[partition], 0u);
    rosters_[partition].clear();
    alloc_offsets_[partition] = 0;
  }

  void OnAddRoot(ObjectId id) {
    for (ObjectId root : roots_) {
      if (root == id) return;  // Idempotent, like the store.
    }
    roots_.push_back(id);
  }

  void OnRemoveRoot(ObjectId id) {
    for (size_t i = 0; i < roots_.size(); ++i) {
      if (roots_[i] == id) {
        // Same swap-with-last the store's root_pos machinery performs.
        roots_[i] = roots_.back();
        roots_.pop_back();
        return;
      }
    }
    FAIL() << "model asked to remove a non-root";
  }

  void OnWriteSlot(ObjectId source, uint32_t slot, ObjectId target) {
    table_.at(source.value).slots[slot] = target;
  }

  bool Alive(ObjectId id) const { return table_.count(id.value) > 0; }
  const Object& at(ObjectId id) const { return table_.at(id.value); }
  const std::vector<ObjectId>& roots() const { return roots_; }
  bool IsRoot(ObjectId id) const {
    for (ObjectId root : roots_) {
      if (root == id) return true;
    }
    return false;
  }
  size_t live_count() const { return table_.size(); }
  uint32_t free_bytes(PartitionId partition) const {
    return static_cast<uint32_t>(partition_bytes_) - alloc_offsets_[partition];
  }
  const std::map<uint32_t, ObjectId>& roster(PartitionId partition) const {
    return rosters_[partition];
  }
  size_t live_count(PartitionId partition) const {
    return live_counts_[partition];
  }
  /// The roster entries of objects still placed there, in offset order.
  std::vector<ObjectId> Residents(PartitionId partition) const {
    std::vector<ObjectId> residents;
    for (const auto& [offset, id] : rosters_[partition]) {
      if (Alive(id) && at(id).partition == partition &&
          at(id).offset == offset) {
        residents.push_back(id);
      }
    }
    return residents;
  }
  size_t partition_count() const { return alloc_offsets_.size(); }

 private:
  const size_t partition_bytes_;
  std::unordered_map<uint64_t, Object> table_;
  std::vector<ObjectId> roots_;
  std::vector<uint32_t> alloc_offsets_;
  std::vector<size_t> live_counts_;
  std::vector<std::map<uint32_t, ObjectId>> rosters_;
};

class DenseTablePropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  // Tiny partitions (1 KB) so allocation pressure grows the database and
  // collections happen often.
  DenseTablePropertyTest() {
    options_.page_size = 256;
    options_.pages_per_partition = 4;
    disk_ = std::make_unique<SimulatedDisk>(options_.page_size);
    buffer_ = std::make_unique<BufferPool>(disk_.get(), 64);
    store_ = std::make_unique<ObjectStore>(options_, disk_.get(),
                                           buffer_.get());
    model_ = std::make_unique<MapModel>(store_->partition_bytes());
    SyncPartitions();
  }

  void SyncPartitions() {
    while (model_->partition_count() < store_->partition_count()) {
      model_->OnPartitionAdded();
    }
  }

  /// Full-state comparison: every id ever issued, the root vector, and
  /// every partition's roster and bump pointer.
  void CheckAgreement() {
    ASSERT_EQ(store_->object_count(), model_->live_count());
    for (uint64_t raw = 1; raw < store_->id_limit(); ++raw) {
      const ObjectId id{raw};
      const ObjectStore::ObjectInfo* info = store_->Lookup(id);
      ASSERT_EQ(info != nullptr, model_->Alive(id)) << "id " << raw;
      if (info == nullptr) continue;
      const MapModel::Object& expected = model_->at(id);
      ASSERT_EQ(info->partition, expected.partition) << "id " << raw;
      ASSERT_EQ(info->offset, expected.offset) << "id " << raw;
      ASSERT_EQ(info->size, expected.size) << "id " << raw;
      ASSERT_EQ(info->num_slots, expected.num_slots) << "id " << raw;
      ASSERT_EQ(info->slots, expected.slots) << "id " << raw;
      ASSERT_EQ(store_->IsRoot(id), model_->IsRoot(id)) << "id " << raw;
    }
    ASSERT_EQ(store_->roots(), model_->roots());
    for (PartitionId p = 0; p < store_->partition_count(); ++p) {
      const Partition& partition = store_->partition(p);
      const auto& expected = model_->roster(p);
      ASSERT_EQ(partition.object_count(), model_->live_count(p))
          << "partition " << p;
      ASSERT_EQ(partition.objects_by_offset().size(), expected.size())
          << "partition " << p;
      auto it = expected.begin();
      for (const auto& [offset, id] : partition.objects_by_offset()) {
        ASSERT_EQ(offset, it->first) << "partition " << p;
        ASSERT_EQ(id, it->second) << "partition " << p;
        ++it;
      }
      ASSERT_EQ(partition.allocated_bytes(),
                partition.capacity_bytes() - model_->free_bytes(p))
          << "partition " << p;
    }
  }

  StoreOptions options_;
  std::unique_ptr<SimulatedDisk> disk_;
  std::unique_ptr<BufferPool> buffer_;
  std::unique_ptr<ObjectStore> store_;
  std::unique_ptr<MapModel> model_;
};

TEST_P(DenseTablePropertyTest, MatchesMapModelUnderRandomOperations) {
  constexpr int kSteps = 2000;
  Rng rng(GetParam());
  std::vector<ObjectId> issued;  // Every id ever returned by Allocate.

  auto random_live = [&]() -> ObjectId {
    for (int attempt = 0; attempt < 32; ++attempt) {
      const ObjectId id = issued[rng.UniformInt(issued.size())];
      if (model_->Alive(id)) return id;
    }
    return kNullObjectId;
  };

  for (int step = 0; step < kSteps; ++step) {
    const uint32_t op = static_cast<uint32_t>(rng.UniformInt(100));
    if (op < 40 || issued.empty()) {
      // Allocate: small objects with a few slots, sometimes parented.
      const uint32_t num_slots = static_cast<uint32_t>(rng.UniformInt(4));
      const uint32_t size = static_cast<uint32_t>(
          MinObjectSize(num_slots) + rng.UniformInt(48));
      ObjectId parent = kNullObjectId;
      if (!issued.empty() && rng.Bernoulli(0.5)) parent = random_live();
      auto id = store_->Allocate(size, num_slots, parent);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      SyncPartitions();  // Allocation may have grown the database.
      const ObjectStore::ObjectInfo* info = store_->Lookup(*id);
      ASSERT_NE(info, nullptr);
      model_->OnAllocate(*id, info->partition, info->offset, size, num_slots);
      issued.push_back(*id);
    } else if (op < 55) {
      // Drop a live non-root (roots must be unrooted first, as in the
      // real collector).
      const ObjectId id = random_live();
      if (id.is_null()) continue;
      if (model_->IsRoot(id)) {
        ASSERT_EQ(store_->DropObject(id).code(),
                  StatusCode::kFailedPrecondition);
        continue;
      }
      ASSERT_TRUE(store_->DropObject(id).ok());
      model_->OnDrop(id);
    } else if (op < 70) {
      // Move: relocate a live object into any partition with room,
      // like the copying collector does.
      const ObjectId id = random_live();
      if (id.is_null()) continue;
      const PartitionId target =
          static_cast<PartitionId>(rng.UniformInt(store_->partition_count()));
      if (model_->free_bytes(target) < model_->at(id).size) continue;
      const Status moved = store_->RelocateObject(id, target);
      ASSERT_TRUE(moved.ok()) << moved.ToString();
      const uint32_t new_offset = model_->OnRelocate(id, target);
      ASSERT_EQ(store_->Lookup(id)->offset, new_offset);
    } else if (op < 80) {
      const ObjectId id = random_live();
      if (id.is_null()) continue;
      ASSERT_TRUE(store_->AddRoot(id).ok());
      model_->OnAddRoot(id);
    } else if (op < 85) {
      if (model_->roots().empty()) continue;
      const ObjectId id =
          model_->roots()[rng.UniformInt(model_->roots().size())];
      ASSERT_TRUE(store_->RemoveRoot(id).ok());
      model_->OnRemoveRoot(id);
    } else if (op < 95) {
      // Slot write: random edge between live objects (or a clear).
      const ObjectId source = random_live();
      if (source.is_null() || model_->at(source).num_slots == 0) continue;
      const uint32_t slot = static_cast<uint32_t>(
          rng.UniformInt(model_->at(source).num_slots));
      const ObjectId target = rng.Bernoulli(0.2) ? kNullObjectId
                                                 : random_live();
      ASSERT_TRUE(store_->WriteSlot(source, slot, target).ok());
      model_->OnWriteSlot(source, slot, target);
    } else {
      // Collect: evacuate one partition into the reserved empty one,
      // then swap — the copying collector's partition reset.
      const PartitionId victim =
          static_cast<PartitionId>(rng.UniformInt(store_->partition_count()));
      const PartitionId empty = store_->empty_partition();
      if (victim == empty) continue;
      // Evacuate in physical (offset) order, like the collector.
      const std::vector<ObjectId> residents = model_->Residents(victim);
      bool fits = true;
      uint32_t needed = 0;
      for (ObjectId id : residents) needed += model_->at(id).size;
      if (needed > model_->free_bytes(empty)) fits = false;
      if (!fits) continue;
      for (ObjectId id : residents) {
        ASSERT_TRUE(store_->RelocateObject(id, empty).ok());
        model_->OnRelocate(id, empty);
      }
      ASSERT_TRUE(store_->SwapEmptyPartition(victim).ok());
      model_->OnSwapEmpty(victim);
    }

    if (step % 50 == 0) CheckAgreement();
  }
  CheckAgreement();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DenseTablePropertyTest,
                         ::testing::Values(1u, 7u, 42u, 1234u),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace odbgc
