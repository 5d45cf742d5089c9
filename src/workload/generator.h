#ifndef ODBGC_WORKLOAD_GENERATOR_H_
#define ODBGC_WORKLOAD_GENERATOR_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "trace/event.h"
#include "util/random.h"
#include "util/status.h"
#include "workload/workload_config.h"

namespace odbgc {

/// The paper's synthetic test application (Section 5): probabilistically
/// creates, visits, and modifies a forest of augmented binary trees,
/// emitting the interaction as a stream of trace events.
///
/// Structure: each tree is a binary tree of 50-150 byte nodes built
/// breadth-first (placement near the parent), augmented with *dense* edges
/// connecting random nodes of the same tree (controlling connectivity),
/// with occasional 64 KB large-leaf documents (~20% of space, as in OO7).
/// Tree roots are database roots.
///
/// Behaviour: after building the initial forest to the live-size target,
/// the application runs rounds of
///  - a partial traversal of a random tree (50% breadth-first, 20%
///    depth-first, 30% none; 5% chance per edge of skipping the subtree;
///    1% of visits modify data),
///  - randomly deleting tree edges (the garbage generator — thanks to the
///    dense edges, all, part, or none of the detached subtree actually
///    dies), and
///  - regrowing subtrees at random nodes to hold live size near the
///    target,
/// until the configured total allocation volume has been reached.
///
/// The generator never looks at the heap: the same (config, seed) produces
/// the identical event stream no matter which policy replays it — the
/// foundation of the paper's trace-driven comparison.
class WorkloadGenerator {
 public:
  WorkloadGenerator(const WorkloadConfig& config, uint64_t seed);

  /// Runs the whole workload into `sink` (build + rounds until done).
  Status Generate(TraceSink* sink);

  /// Builds the initial forest up to the live-data target.
  Status BuildInitialDatabase(TraceSink* sink);

  /// Runs one application round (traversal, deletions, regrowth).
  Status RunRound(TraceSink* sink);

  /// True once the allocation budget (or round cap) is exhausted.
  bool Done() const;

  // -- Progress introspection ----------------------------------------------
  uint64_t total_allocated_bytes() const { return allocated_bytes_; }
  /// Live bytes by the generator's own (tree-edge) accounting; dense edges
  /// may keep detached objects actually live in the database.
  uint64_t logical_live_bytes() const { return live_bytes_; }
  uint64_t rounds_run() const { return rounds_; }
  size_t tree_count() const { return trees_.size(); }
  /// Nodes still attached to a tree.
  size_t logical_node_count() const { return live_nodes_; }

 private:
  struct GenNode {
    uint64_t parent = 0;  // 0 for tree roots.
    uint64_t children[2] = {0, 0};
    uint32_t size = 0;
    uint32_t pick_slot = 0;  // Index in its tree's pick list while live.
    bool large = false;
    bool live = false;  // False once detached (and for the id-0 sentinel).
  };
  struct GenTree {
    uint64_t root = 0;
    std::vector<uint64_t> nodes;  // Pick list (live nodes).
  };

  // Creates one node (emitting Alloc) in `tree`, possibly large (only when
  // allowed), registers it, maybe adds a dense edge. Returns its id. The
  // push may reallocate nodes_, so no caller holds a GenNode& across it.
  Result<uint64_t> CreateNode(TraceSink* sink, GenTree* tree, uint64_t parent,
                              bool allow_large);

  // Builds a tree of ~node_count nodes breadth-first; the root becomes a
  // database root.
  Status BuildTree(TraceSink* sink, uint32_t node_count);

  // Grows ~node_count new nodes under random attachment points of `tree`.
  Status GrowSubtree(TraceSink* sink, GenTree* tree, uint32_t node_count);

  // Deletes one random tree edge (uniform over edges), detaching the
  // subtree from the generator's logical state. False if no edge exists.
  Result<bool> DeleteRandomEdge(TraceSink* sink);

  // Partial traversal of a random tree.
  Status Traverse(TraceSink* sink);

  // Removes `node` and its logical subtree from tracking.
  void DetachSubtree(GenTree* tree, uint64_t node);

  void RemoveFromTree(GenTree* tree, uint64_t id);

  // Picks a tree index; kInvalid if none.
  static constexpr size_t kNoTree = static_cast<size_t>(-1);
  size_t PickTree();

  const WorkloadConfig config_;
  Rng rng_;
  // Every node ever created, indexed by its logical id: ids are issued
  // 1, 2, 3, ... and never reused, so the next id is nodes_.size().
  // nodes_[0] is a dead sentinel.
  std::vector<GenNode> nodes_;
  size_t live_nodes_ = 0;
  std::vector<GenTree> trees_;
  uint64_t allocated_bytes_ = 0;
  uint64_t live_bytes_ = 0;
  uint64_t rounds_ = 0;
  double deletion_deficit_ = 0.0;
  bool built_ = false;
};

}  // namespace odbgc

#endif  // ODBGC_WORKLOAD_GENERATOR_H_
