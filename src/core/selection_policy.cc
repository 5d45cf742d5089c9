#include "core/selection_policy.h"

#include <map>
#include <mutex>
#include <utility>

#include "core/extension_policies.h"
#include "core/policies.h"

namespace odbgc {

const std::vector<PolicyKind>& AllPolicyKinds() {
  static const std::vector<PolicyKind>* const kAll = new std::vector<PolicyKind>{
      PolicyKind::kNoCollection,    PolicyKind::kMutatedPartition,
      PolicyKind::kRandom,          PolicyKind::kWeightedPointer,
      PolicyKind::kUpdatedPointer,  PolicyKind::kMostGarbage,
  };
  return *kAll;
}

const std::vector<std::string>& PaperPolicyNames() {
  static const std::vector<std::string>* const kNames = [] {
    auto* names = new std::vector<std::string>;
    for (PolicyKind kind : AllPolicyKinds()) names->push_back(PolicyName(kind));
    return names;
  }();
  return *kNames;
}

const char* PolicyName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kNoCollection: return "NoCollection";
    case PolicyKind::kMutatedPartition: return "MutatedPartition";
    case PolicyKind::kUpdatedPointer: return "UpdatedPointer";
    case PolicyKind::kWeightedPointer: return "WeightedPointer";
    case PolicyKind::kRandom: return "Random";
    case PolicyKind::kMostGarbage: return "MostGarbage";
  }
  return "Unknown";
}

// ------------------------------------------------------------ Registry

namespace {

struct PolicyRegistry {
  std::mutex mutex;
  std::map<std::string, PolicyFactory> factories;
};

// The paper's six and the two extension policies are seeded here rather
// than via static initializers: a static-library registrar object would be
// dropped by the linker in binaries that reference no symbol of its
// translation unit, silently shrinking the registry.
PolicyRegistry& GlobalPolicyRegistry() {
  static PolicyRegistry* const registry = [] {
    auto* r = new PolicyRegistry;
    for (PolicyKind kind : AllPolicyKinds()) {
      r->factories.emplace(PolicyName(kind),
                           [kind](const PolicyContext& context) {
                             return MakePolicy(kind, context.seed);
                           });
    }
    r->factories.emplace("LeastRecentlyCollected", [](const PolicyContext&) {
      return std::make_unique<LeastRecentlyCollectedPolicy>();
    });
    r->factories.emplace("CostBenefit", [](const PolicyContext& context) {
      return std::make_unique<CostBenefitPolicy>(context.store);
    });
    return r;
  }();
  return *registry;
}

}  // namespace

Status RegisterPolicy(const std::string& name, PolicyFactory factory) {
  if (name.empty()) {
    return Status::InvalidArgument("policy name must be non-empty");
  }
  if (!factory) {
    return Status::InvalidArgument("policy factory must be callable");
  }
  PolicyRegistry& registry = GlobalPolicyRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  if (!registry.factories.emplace(name, std::move(factory)).second) {
    return Status::AlreadyExists("policy name already registered: " + name);
  }
  return Status::Ok();
}

Result<std::unique_ptr<SelectionPolicy>> MakePolicy(
    const PolicyContext& context, const std::string& name) {
  PolicyFactory factory;
  {
    PolicyRegistry& registry = GlobalPolicyRegistry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    auto it = registry.factories.find(name);
    if (it == registry.factories.end()) {
      std::string known;
      for (const auto& [known_name, unused] : registry.factories) {
        if (!known.empty()) known += ", ";
        known += known_name;
      }
      return Status::InvalidArgument("unknown policy name: " + name +
                                     " (registered: " + known + ")");
    }
    factory = it->second;
  }
  // Invoke outside the lock: factories may themselves consult the registry.
  return factory(context);
}

Result<std::unique_ptr<SelectionPolicy>> MakePolicy(const std::string& name,
                                                    uint64_t seed) {
  PolicyContext context;
  context.seed = seed;
  return MakePolicy(context, name);
}

bool IsPolicyRegistered(const std::string& name) {
  PolicyRegistry& registry = GlobalPolicyRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  return registry.factories.count(name) != 0;
}

std::vector<std::string> RegisteredPolicyNames() {
  PolicyRegistry& registry = GlobalPolicyRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  std::vector<std::string> names;
  names.reserve(registry.factories.size());
  for (const auto& [name, unused] : registry.factories) names.push_back(name);
  return names;
}

Result<std::vector<std::string>> ParsePolicyList(const std::string& list) {
  std::vector<std::string> names;
  size_t start = 0;
  while (true) {
    const size_t comma = list.find(',', start);
    std::string name = list.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!IsPolicyRegistered(name)) {
      std::string message = "unknown policy \"";
      message.append(name).append("\"; registered:\n");
      for (const std::string& known : RegisteredPolicyNames()) {
        message.append("  ").append(known).append("\n");
      }
      return Status::InvalidArgument(std::move(message));
    }
    names.push_back(std::move(name));
    if (comma == std::string::npos) return names;
    start = comma + 1;
  }
}

}  // namespace odbgc
