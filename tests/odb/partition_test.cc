#include "odb/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <vector>

#include "util/random.h"

namespace odbgc {
namespace {

TEST(PartitionTest, Geometry) {
  Partition p(3, PageExtent{8, 4}, 512);
  EXPECT_EQ(p.id(), 3u);
  EXPECT_EQ(p.capacity_bytes(), 2048u);
  EXPECT_EQ(p.allocated_bytes(), 0u);
  EXPECT_EQ(p.free_bytes(), 2048u);
  EXPECT_TRUE(p.empty());
}

TEST(PartitionTest, BumpAllocation) {
  Partition p(0, PageExtent{0, 1}, 256);
  uint32_t at = 99;
  ASSERT_TRUE(p.TryAllocate(100, &at));
  EXPECT_EQ(at, 0u);
  ASSERT_TRUE(p.TryAllocate(100, &at));
  EXPECT_EQ(at, 100u);
  EXPECT_EQ(p.free_bytes(), 56u);
  EXPECT_FALSE(p.TryAllocate(57, &at));
  ASSERT_TRUE(p.TryAllocate(56, &at));
  EXPECT_EQ(p.free_bytes(), 0u);
}

TEST(PartitionTest, ObjectRoster) {
  Partition p(0, PageExtent{0, 1}, 256);
  p.AddObject(0, ObjectId{10});
  p.AddObject(100, ObjectId{11});
  p.AddObject(50, ObjectId{12});
  EXPECT_EQ(p.object_count(), 3u);
  // Iteration is by physical offset.
  std::vector<uint64_t> order;
  for (const auto& [offset, id] : p.objects_by_offset()) {
    order.push_back(id.value);
  }
  EXPECT_EQ(order, (std::vector<uint64_t>{10, 12, 11}));
  p.RemoveObject(50);
  EXPECT_EQ(p.object_count(), 2u);
}

TEST(PartitionTest, ResetRestoresCapacity) {
  Partition p(0, PageExtent{0, 1}, 256);
  uint32_t at = 0;
  ASSERT_TRUE(p.TryAllocate(200, &at));
  p.AddObject(at, ObjectId{1});
  p.RemoveObject(at);
  p.Reset();
  EXPECT_EQ(p.allocated_bytes(), 0u);
  EXPECT_EQ(p.free_bytes(), 256u);
  EXPECT_TRUE(p.empty());
}

// Seeded random walk over one roster, checked against a std::map<offset,
// id> model after every step. Removal only marks an entry dead and only
// some readers drop dead entries, so the per-step check uses the readers
// that leave them in place (counts and point lookups), and the whole
// roster is compared at random steps: dead entries pile up in between
// while the walk mixes every way one could leak out. Steps: tail and
// out-of-order adds (the latter often at just-removed offsets), removals
// in arbitrary order, point and upper-bound lookups on live and removed
// offsets, and emptying the roster, Reset and refilling it.
class RosterModelTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void ExpectMatchesModel(int step) {
    ASSERT_EQ(roster_.object_count(), model_.size()) << "step " << step;
    ASSERT_EQ(roster_.empty(), model_.empty()) << "step " << step;
    for (const auto& [offset, id] : model_) {
      ASSERT_EQ(roster_.ObjectAt(offset), id) << "step " << step;
    }
    for (uint32_t offset : removed_) {
      ASSERT_TRUE(roster_.ObjectAt(offset).is_null()) << "step " << step;
    }
  }

  void ExpectRosterMatches(int step) {
    const Partition::Roster& entries = roster_.objects_by_offset();
    ASSERT_EQ(entries.size(), model_.size()) << "step " << step;
    auto expected = model_.begin();
    for (const auto& [offset, id] : entries) {
      ASSERT_FALSE(id.is_null()) << "dead entry surfaced at step " << step;
      ASSERT_EQ(offset, expected->first) << "step " << step;
      ASSERT_EQ(id, expected->second) << "step " << step;
      ++expected;
    }
  }

  // A uniformly chosen live offset (the model must be non-empty).
  uint32_t PickLive() {
    auto it = model_.begin();
    std::advance(it, rng_.UniformInt(model_.size()));
    return it->first;
  }

  void Add(uint32_t offset) {
    const ObjectId id{next_id_++};
    roster_.AddObject(offset, id);
    model_[offset] = id;
    high_ = std::max(high_, offset);
    removed_.erase(std::remove(removed_.begin(), removed_.end(), offset),
                   removed_.end());
  }

  void Remove(uint32_t offset) {
    roster_.RemoveObject(offset);
    model_.erase(offset);
    removed_.push_back(offset);
  }

  Rng rng_{GetParam()};
  Partition roster_{0, PageExtent{0, 64}, 256};
  std::map<uint32_t, ObjectId> model_;
  std::vector<uint32_t> removed_;  // Offsets removed and not re-added.
  uint32_t high_ = 0;              // Highest offset added since Reset.
  uint64_t next_id_ = 1;
};

TEST_P(RosterModelTest, MatchesOrderedMapModel) {
  for (int step = 0; step < 4000; ++step) {
    const uint64_t op = rng_.UniformInt(100);
    if (op < 30 || model_.empty()) {
      // Tail add: past every entry the roster has ever held, dead or live.
      Add(model_.empty() && high_ == 0
              ? static_cast<uint32_t>(rng_.UniformInt(4))
              : high_ + 1 + static_cast<uint32_t>(rng_.UniformInt(32)));
    } else if (op < 40 && model_.size() <= high_) {
      // Out-of-order add at a free offset below the tail (one exists: the
      // model's distinct offsets all lie in [0, high_]), preferring a
      // removed offset.
      uint32_t offset;
      do {
        offset = !removed_.empty() && rng_.Bernoulli(0.5)
                     ? removed_[rng_.UniformInt(removed_.size())]
                     : static_cast<uint32_t>(rng_.UniformInt(high_ + 1));
      } while (model_.count(offset) != 0);
      Add(offset);
    } else if (op < 70) {
      Remove(PickLive());
    } else if (op < 72) {
      // Remove every resident in a random order, then reset and refill.
      std::vector<uint32_t> offsets;
      for (const auto& [offset, id] : model_) offsets.push_back(offset);
      for (size_t i = offsets.size(); i > 1; --i) {
        std::swap(offsets[i - 1], offsets[rng_.UniformInt(i)]);
      }
      for (uint32_t offset : offsets) {
        Remove(offset);
        ASSERT_EQ(roster_.object_count(), model_.size()) << "step " << step;
      }
      ASSERT_TRUE(roster_.empty());
      ASSERT_TRUE(roster_.objects_by_offset().empty());
      roster_.Reset();
      removed_.clear();
      high_ = 0;
    } else if (op < 84) {
      // Point lookups: a live offset, a removed one, and an arbitrary one.
      const uint32_t live = PickLive();
      EXPECT_EQ(roster_.ObjectAt(live), model_.at(live)) << "step " << step;
      if (!removed_.empty()) {
        const uint32_t gone = removed_[rng_.UniformInt(removed_.size())];
        EXPECT_TRUE(roster_.ObjectAt(gone).is_null()) << "step " << step;
      }
      const uint32_t any = static_cast<uint32_t>(rng_.UniformInt(high_ + 2));
      const auto found = model_.find(any);
      EXPECT_EQ(roster_.ObjectAt(any),
                found == model_.end() ? kNullObjectId : found->second)
          << "step " << step;
    } else if (op < 94) {
      // Card-scan entry point: everything after a live, removed or
      // arbitrary offset, in order.
      uint32_t probe = static_cast<uint32_t>(rng_.UniformInt(high_ + 2));
      if (op < 88) probe = PickLive();
      if (op >= 91 && !removed_.empty()) {
        probe = removed_[rng_.UniformInt(removed_.size())];
      }
      // Read through UpperBound's own iterator before any other reader
      // runs: it must have dropped the dead entries itself.
      auto it = roster_.UpperBound(probe);
      for (auto expected = model_.upper_bound(probe);
           expected != model_.end(); ++expected, ++it) {
        ASSERT_FALSE(it->id.is_null()) << "dead entry at step " << step;
        EXPECT_EQ(it->offset, expected->first) << "step " << step;
        EXPECT_EQ(it->id, expected->second) << "step " << step;
      }
      const auto end = roster_.objects_by_offset().end();
      const auto tail = std::distance(model_.upper_bound(probe), model_.end());
      EXPECT_EQ(roster_.UpperBound(probe) + tail, end) << "step " << step;
    } else {
      ExpectRosterMatches(step);
    }
    ExpectMatchesModel(step);
  }
  ExpectRosterMatches(-1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RosterModelTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace odbgc
