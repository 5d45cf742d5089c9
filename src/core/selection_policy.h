#ifndef ODBGC_CORE_SELECTION_POLICY_H_
#define ODBGC_CORE_SELECTION_POLICY_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "odb/object_id.h"
#include "odb/object_store.h"
#include "util/random.h"
#include "util/status.h"

namespace odbgc {

class ObjectStore;  // Bound into registry-built policies that need it.

/// The six partition selection policies of the paper (Section 3.1).
///
/// This enum is the *behaviour class* of a policy, not its identity:
/// policies are identified by their registry `name()` (see RegisterPolicy
/// below), and several distinct named policies may share one kind — the
/// heap consults `kind()` only for the two behavioural special cases
/// (kNoCollection disables the trigger, kMostGarbage runs the oracle
/// census). The enum is kept as a thin alias layer so the paper's six
/// policies remain configurable (and checkpoint-compatible) by kind.
enum class PolicyKind {
  /// Never collect; grow the database instead (upper space bound).
  kNoCollection,
  /// Most pointer stores into a partition since its last collection
  /// (the enhanced Yong/Naughton/Yu heuristic).
  kMutatedPartition,
  /// Most overwritten pointers that pointed *into* a partition — the
  /// paper's winning policy.
  kUpdatedPointer,
  /// Like UpdatedPointer, but each overwrite weighted 2^(16-w) by the old
  /// target's root-distance weight w.
  kWeightedPointer,
  /// Uniformly random partition (control).
  kRandom,
  /// Oracle: the partition currently containing the most garbage
  /// (near-optimal, impractical to implement outside a simulator).
  kMostGarbage,
};

/// All six kinds, in the paper's table order.
const std::vector<PolicyKind>& AllPolicyKinds();

/// Registry names of the paper's six policies, in AllPolicyKinds order —
/// the default policy axis of an ExperimentSpec.
const std::vector<std::string>& PaperPolicyNames();

/// "UpdatedPointer", "MostGarbage", ...
const char* PolicyName(PolicyKind kind);

/// Parses a policy name (exact match); InvalidArgument if unknown.
Result<PolicyKind> ParsePolicyName(const std::string& name);

/// Everything a policy may consult when choosing a victim partition.
struct SelectionContext {
  /// Partitions eligible for collection: every non-empty partition except
  /// the reserved copy target. Ascending id order.
  std::vector<PartitionId> candidates;
  /// Actual garbage bytes per partition (indexed by partition id). Only
  /// populated when an oracle census was run (MostGarbage); empty
  /// otherwise.
  std::vector<uint64_t> garbage_bytes_per_partition;
};

/// A partition selection policy. The heap notifies the policy of every
/// pointer store (the write-barrier hook it shares with the remembered-set
/// machinery) and of each completed collection; when a collection triggers,
/// `Select` chooses the victim.
///
/// Implementations must be deterministic given the notification sequence
/// (Random draws from an explicitly seeded Rng).
class SelectionPolicy {
 public:
  virtual ~SelectionPolicy() = default;

  /// The behaviour class (see PolicyKind). Policies outside the paper's
  /// six return the kind whose trigger/census behaviour they want.
  virtual PolicyKind kind() const = 0;

  /// The policy's identity: the registry name manifests, reports and
  /// checkpoint directories key on. Defaults to the paper name of
  /// `kind()`; every policy beyond the six must override it.
  virtual std::string name() const { return PolicyName(kind()); }

  /// Notification of one pointer store. `old_target_weight` is the
  /// root-distance weight of the overwritten target at the moment of the
  /// store (kMaxWeight when weights are not maintained); only
  /// WeightedPointer consumes it.
  virtual void OnPointerStore(const SlotWriteEvent& event,
                              uint8_t old_target_weight) {
    (void)event;
    (void)old_target_weight;
  }

  /// Notification that `partition` was just collected; policies reset that
  /// partition's accumulated hints ("zero the counter and begin again").
  virtual void OnPartitionCollected(PartitionId partition) {
    (void)partition;
  }

  /// Chooses the partition to collect. Returns kInvalidPartition if the
  /// policy declines (NoCollection, or no candidates).
  virtual PartitionId Select(const SelectionContext& context) = 0;

  /// The policy's current hint value for `partition` (counter, weighted
  /// sum, or garbage estimate) — exposed for tests and inspection tools.
  virtual double Score(PartitionId partition) const {
    (void)partition;
    return 0.0;
  }

  /// Serializes the policy's accumulated hint state for checkpointing.
  /// Stateless policies write nothing.
  virtual void SaveState(std::ostream& out) const { (void)out; }

  /// Restores state written by SaveState on a policy of the same kind.
  virtual Status LoadState(std::istream& in) {
    (void)in;
    return Status::Ok();
  }
};

/// Creates a policy instance. `seed` feeds Random's generator; other
/// policies ignore it. Thin alias over the name registry below:
/// MakePolicy(kind, seed) == *MakePolicy(PolicyName(kind), seed).
std::unique_ptr<SelectionPolicy> MakePolicy(PolicyKind kind, uint64_t seed);

// ---------------------------------------------------------------------------
// Named policy registry: the open-world identity surface. The paper's six
// kinds and the extension policies are pre-registered; libraries and
// applications add their own with RegisterPolicy and then select them by
// name everywhere a built-in fits (HeapOptions::policy_name,
// ExperimentSpec, run manifests, odbgc-report).

/// What a registry factory may bind when constructing a policy.
struct PolicyContext {
  /// Seed for policy randomness (Random draws from it; others ignore it).
  uint64_t seed = 0;
  /// Stable slot holding the heap's object store, for policies that
  /// consult DBA-visible state (CostBenefit's occupancy). Null when the
  /// policy is built outside a heap; the slot's pointee is null until the
  /// heap finishes wiring, so factories must keep the slot, not deref it.
  const ObjectStore* const* store = nullptr;
};

using PolicyFactory =
    std::function<std::unique_ptr<SelectionPolicy>(const PolicyContext&)>;

/// Registers `factory` under `name`. AlreadyExists if the name is taken
/// (including the pre-registered built-ins). Thread-safe.
Status RegisterPolicy(const std::string& name, PolicyFactory factory);

/// Creates the policy registered under `name`. InvalidArgument (listing
/// the registered names) if unknown. Thread-safe.
Result<std::unique_ptr<SelectionPolicy>> MakePolicy(const PolicyContext& context,
                                                    const std::string& name);

/// Convenience overload without a store binding.
Result<std::unique_ptr<SelectionPolicy>> MakePolicy(const std::string& name,
                                                    uint64_t seed);

/// True if `name` is registered.
bool IsPolicyRegistered(const std::string& name);

/// Every registered name, sorted: the six paper policies, the extension
/// policies, and anything the application registered.
std::vector<std::string> RegisteredPolicyNames();

/// Splits a comma-separated policy list ("A,B,...", as the command-line
/// tools take it) into registry names, in order. InvalidArgument at the
/// first name that is not registered (an empty item included); the
/// message names it and lists every registered name, one per line.
Result<std::vector<std::string>> ParsePolicyList(const std::string& list);

}  // namespace odbgc

#endif  // ODBGC_CORE_SELECTION_POLICY_H_
