// The string-named policy registry: the open-world identity surface that
// HeapOptions::policy_name, ExperimentSpec and the run manifests key on.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/policies.h"
#include "core/selection_policy.h"
#include "sim/config.h"
#include "sim/simulator.h"

namespace odbgc {
namespace {

TEST(PolicyRegistryTest, BuiltinsArePreRegistered) {
  const std::vector<std::string> names = RegisteredPolicyNames();
  for (const std::string& paper : PaperPolicyNames()) {
    EXPECT_TRUE(IsPolicyRegistered(paper)) << paper;
    EXPECT_NE(std::find(names.begin(), names.end(), paper), names.end());
  }
  EXPECT_TRUE(IsPolicyRegistered("LeastRecentlyCollected"));
  EXPECT_TRUE(IsPolicyRegistered("CostBenefit"));
  EXPECT_FALSE(IsPolicyRegistered("NoSuchPolicy"));
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(PolicyRegistryTest, PaperNamesMatchKindNames) {
  ASSERT_EQ(PaperPolicyNames().size(), AllPolicyKinds().size());
  for (size_t i = 0; i < AllPolicyKinds().size(); ++i) {
    EXPECT_EQ(PaperPolicyNames()[i], PolicyName(AllPolicyKinds()[i]));
  }
}

TEST(PolicyRegistryTest, MakePolicyByNameMatchesKindFactory) {
  for (PolicyKind kind : AllPolicyKinds()) {
    auto by_name = MakePolicy(std::string(PolicyName(kind)), /*seed=*/7);
    ASSERT_TRUE(by_name.ok()) << PolicyName(kind);
    EXPECT_EQ((*by_name)->kind(), kind);
    EXPECT_EQ((*by_name)->name(), PolicyName(kind));
    EXPECT_EQ(MakePolicy(kind, 7)->name(), (*by_name)->name());
  }
}

TEST(PolicyRegistryTest, UnknownNameIsInvalidArgumentListingRegistry) {
  auto policy = MakePolicy(std::string("Bogus"), /*seed=*/1);
  ASSERT_FALSE(policy.ok());
  EXPECT_EQ(policy.status().code(), StatusCode::kInvalidArgument);
  // The error teaches the caller what is available.
  EXPECT_NE(policy.status().message().find("UpdatedPointer"),
            std::string::npos)
      << policy.status().ToString();
}

TEST(PolicyRegistryTest, ParsePolicyListSplitsRegisteredNamesInOrder) {
  auto names = ParsePolicyList("MostGarbage,CostBenefit,MostGarbage");
  ASSERT_TRUE(names.ok()) << names.status().ToString();
  EXPECT_EQ(*names, (std::vector<std::string>{"MostGarbage", "CostBenefit",
                                              "MostGarbage"}));
}

TEST(PolicyRegistryTest, ParsePolicyListRejectsFirstUnknownOrEmptyItem) {
  // {list, the item it must reject}.
  const std::pair<const char*, const char*> cases[] = {
      {"UpdatedPointer,Bogus,Worse", "Bogus"},
      {"", ""},
      {"Random,", ""},
      {"Random,,MostGarbage", ""}};
  for (const auto& [list, rejected] : cases) {
    auto names = ParsePolicyList(list);
    ASSERT_FALSE(names.ok()) << list;
    EXPECT_EQ(names.status().code(), StatusCode::kInvalidArgument);
    const std::string message = names.status().message();
    const std::string head =
        std::string("unknown policy \"").append(rejected).append(
            "\"; registered:\n");
    EXPECT_EQ(message.rfind(head, 0), 0u) << message;
    EXPECT_NE(message.find("\n  UpdatedPointer\n"), std::string::npos)
        << message;
  }
}

TEST(PolicyRegistryTest, DuplicateRegistrationIsAlreadyExists) {
  auto factory = [](const PolicyContext& context) {
    return MakePolicy(PolicyKind::kRandom, context.seed);
  };
  ASSERT_TRUE(RegisterPolicy("RegistryTestDupe", factory).ok());
  const Status again = RegisterPolicy("RegistryTestDupe", factory);
  EXPECT_EQ(again.code(), StatusCode::kAlreadyExists);
  // Builtins are protected the same way.
  EXPECT_EQ(RegisterPolicy("Random", factory).code(),
            StatusCode::kAlreadyExists);
}

TEST(PolicyRegistryTest, HeapResolvesPolicyNameAndReflectsIt) {
  SimulationConfig config;
  config.heap.store.page_size = 1024;
  config.heap.store.pages_per_partition = 16;
  config.heap.buffer_pages = 16;
  config.workload.target_live_bytes = 32ull << 10;
  config.workload.total_alloc_bytes = 80ull << 10;
  config.workload.tree_nodes_min = 40;
  config.workload.tree_nodes_max = 120;
  config.workload.large_object_size = 4096;
  // kind() precedence is irrelevant once a name is given: the name wins.
  config.heap.policy = PolicyKind::kNoCollection;
  config.heap.policy_name = "Random";

  Simulator simulator(config);
  ASSERT_TRUE(simulator.Run().ok());
  EXPECT_EQ(simulator.heap().options().policy, PolicyKind::kRandom);
  EXPECT_EQ(simulator.heap().options().policy_name, "Random");
  EXPECT_EQ(simulator.Finish().policy_name, "Random");
}

TEST(PolicyRegistryTest, RegisteredCustomPolicyRunsByName) {
  // A renamed Random: distinct identity, same behaviour class.
  const Status registered = RegisterPolicy(
      "RegistryTestRandomAlias", [](const PolicyContext& context) {
        class Alias : public SelectionPolicy {
         public:
          explicit Alias(uint64_t seed)
              : inner_(MakePolicy(PolicyKind::kRandom, seed)) {}
          PolicyKind kind() const override { return inner_->kind(); }
          std::string name() const override {
            return "RegistryTestRandomAlias";
          }
          PartitionId Select(const SelectionContext& context) override {
            return inner_->Select(context);
          }

         private:
          std::unique_ptr<SelectionPolicy> inner_;
        };
        return std::make_unique<Alias>(context.seed);
      });
  ASSERT_TRUE(registered.ok()) << registered.ToString();

  auto policy = MakePolicy(std::string("RegistryTestRandomAlias"), 3);
  ASSERT_TRUE(policy.ok());
  EXPECT_EQ((*policy)->name(), "RegistryTestRandomAlias");
  EXPECT_EQ((*policy)->kind(), PolicyKind::kRandom);
}

}  // namespace
}  // namespace odbgc
