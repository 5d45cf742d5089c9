#include "odb/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
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
  p.AddObject(50, ObjectId{12});
  p.AddObject(100, ObjectId{11});
  EXPECT_EQ(p.object_count(), 3u);
  // Iteration is by physical offset, which bump order already is.
  std::vector<uint64_t> order;
  for (const auto& [offset, id] : p.objects_by_offset()) {
    order.push_back(id.value);
  }
  EXPECT_EQ(order, (std::vector<uint64_t>{10, 12, 11}));
  // A departure only counts: the entry stays until it is dropped.
  p.ReleaseObject();
  EXPECT_EQ(p.object_count(), 2u);
  EXPECT_EQ(p.objects_by_offset().size(), 3u);
  p.DropEntries([](const PartitionResident& r) { return r.offset == 50; });
  order.clear();
  for (const auto& [offset, id] : p.objects_by_offset()) {
    order.push_back(id.value);
  }
  EXPECT_EQ(order, (std::vector<uint64_t>{10, 11}));
}

TEST(PartitionTest, ResetRestoresCapacity) {
  Partition p(0, PageExtent{0, 1}, 256);
  uint32_t at = 0;
  ASSERT_TRUE(p.TryAllocate(200, &at));
  p.AddObject(at, ObjectId{1});
  p.ReleaseObject();
  EXPECT_TRUE(p.empty());
  p.Reset();
  EXPECT_EQ(p.allocated_bytes(), 0u);
  EXPECT_EQ(p.free_bytes(), 256u);
  EXPECT_TRUE(p.empty());
  EXPECT_TRUE(p.objects_by_offset().empty());
}

// Seeded random walk over one roster, checked against a std::map<offset,
// id> model of its entries and a set of the live offsets after every step.
// The roster is append-only: adds land past every entry since the last
// Reset, a release only counts (its entry stays, departed), DropEntries
// removes the departed entries in one pass (a failed evacuation), and
// Reset clears the roster once nothing is live (a finished evacuation).
// Upper-bound lookups (the card scan's entry point) probe live, departed
// and arbitrary offsets and see departed entries like any other.
class RosterModelTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void ExpectMatchesModel(int step) {
    ASSERT_EQ(roster_.object_count(), live_.size()) << "step " << step;
    ASSERT_EQ(roster_.empty(), live_.empty()) << "step " << step;
    const Partition::Roster& entries = roster_.objects_by_offset();
    ASSERT_EQ(entries.size(), model_.size()) << "step " << step;
    auto expected = model_.begin();
    for (const auto& [offset, id] : entries) {
      ASSERT_EQ(offset, expected->first) << "step " << step;
      ASSERT_EQ(id, expected->second) << "step " << step;
      ++expected;
    }
  }

  // A uniformly chosen live offset (some offset must be live).
  uint32_t PickLive() {
    auto it = live_.begin();
    std::advance(it, rng_.UniformInt(live_.size()));
    return *it;
  }

  // A uniformly chosen entry's offset, live or departed.
  uint32_t PickEntry() {
    auto it = model_.begin();
    std::advance(it, rng_.UniformInt(model_.size()));
    return it->first;
  }

  void Add() {
    const uint32_t offset =
        model_.empty() ? static_cast<uint32_t>(rng_.UniformInt(4))
                       : model_.rbegin()->first + 1 +
                             static_cast<uint32_t>(rng_.UniformInt(32));
    const ObjectId id{next_id_++};
    roster_.AddObject(offset, id);
    model_[offset] = id;
    live_.insert(offset);
  }

  void Release(uint32_t offset) {
    roster_.ReleaseObject();
    live_.erase(offset);
  }

  Rng rng_{GetParam()};
  Partition roster_{0, PageExtent{0, 64}, 256};
  std::map<uint32_t, ObjectId> model_;  // Every entry since the last Reset.
  std::set<uint32_t> live_;             // Offsets of the live entries.
  uint64_t next_id_ = 1;
};

TEST_P(RosterModelTest, MatchesOrderedMapModel) {
  for (int step = 0; step < 4000; ++step) {
    const uint64_t op = rng_.UniformInt(100);
    if (op < 40 || live_.empty()) {
      Add();
    } else if (op < 70) {
      Release(PickLive());
    } else if (op < 74) {
      // A failed evacuation: drop the departed entries, keep the rest.
      roster_.DropEntries([&](const PartitionResident& r) {
        return live_.count(r.offset) == 0;
      });
      std::erase_if(model_, [&](const auto& entry) {
        return live_.count(entry.first) == 0;
      });
    } else if (op < 76) {
      // A finished evacuation: every resident leaves in a random order,
      // then Reset clears the roster, departed entries and all.
      std::vector<uint32_t> offsets(live_.begin(), live_.end());
      for (size_t i = offsets.size(); i > 1; --i) {
        std::swap(offsets[i - 1], offsets[rng_.UniformInt(i)]);
      }
      for (uint32_t offset : offsets) {
        Release(offset);
        ASSERT_EQ(roster_.object_count(), live_.size()) << "step " << step;
      }
      ASSERT_TRUE(roster_.empty());
      ASSERT_EQ(roster_.objects_by_offset().size(), model_.size());
      roster_.Reset();
      model_.clear();
    } else {
      // Card-scan entry point: everything after a live, departed or
      // arbitrary offset, in order.
      uint32_t probe = static_cast<uint32_t>(
          rng_.UniformInt(model_.empty() ? 8 : model_.rbegin()->first + 2));
      if (op < 84 && !live_.empty()) probe = PickLive();
      if (op >= 92 && !model_.empty()) probe = PickEntry();
      auto it = roster_.UpperBound(probe);
      for (auto expected = model_.upper_bound(probe);
           expected != model_.end(); ++expected, ++it) {
        EXPECT_EQ(it->offset, expected->first) << "step " << step;
        EXPECT_EQ(it->id, expected->second) << "step " << step;
      }
      EXPECT_EQ(it, roster_.objects_by_offset().end()) << "step " << step;
    }
    ExpectMatchesModel(step);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RosterModelTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace odbgc
