#include "workload/generator.h"

#include <algorithm>
#include <cassert>
#include <utility>


namespace odbgc {

WorkloadGenerator::WorkloadGenerator(const WorkloadConfig& config,
                                     uint64_t seed)
    : config_(config), rng_(seed) {}

Status WorkloadGenerator::Generate(TraceSink* sink) {
  ODBGC_RETURN_IF_ERROR(config_.Validate());
  ODBGC_RETURN_IF_ERROR(BuildInitialDatabase(sink));
  while (!Done()) {
    ODBGC_RETURN_IF_ERROR(RunRound(sink));
  }
  return Status::Ok();
}

Status WorkloadGenerator::BuildInitialDatabase(TraceSink* sink) {
  if (built_) return Status::Ok();
  while (live_bytes_ < config_.target_live_bytes) {
    const uint32_t n = static_cast<uint32_t>(
        rng_.UniformRange(config_.tree_nodes_min, config_.tree_nodes_max));
    ODBGC_RETURN_IF_ERROR(BuildTree(sink, n));
  }
  built_ = true;
  return Status::Ok();
}

bool WorkloadGenerator::Done() const {
  return built_ && (allocated_bytes_ >= config_.total_alloc_bytes ||
                    rounds_ >= config_.max_rounds);
}

Status WorkloadGenerator::RunRound(TraceSink* sink) {
  if (!built_) ODBGC_RETURN_IF_ERROR(BuildInitialDatabase(sink));

  ODBGC_RETURN_IF_ERROR(Traverse(sink));

  // Garbage creation: a (fractional) number of edge deletions per round,
  // smoothed deterministically via an accumulator.
  deletion_deficit_ += config_.deletions_per_round;
  while (deletion_deficit_ >= 1.0) {
    deletion_deficit_ -= 1.0;
    auto deleted = DeleteRandomEdge(sink);
    ODBGC_RETURN_IF_ERROR(deleted.status());
    if (!*deleted) break;  // Forest has no deletable edges.
  }

  // Regrowth: hold live size near the target (and spend the allocation
  // budget that defines the end of the run).
  uint32_t grown = 0;
  while (live_bytes_ < config_.target_live_bytes &&
         allocated_bytes_ < config_.total_alloc_bytes && grown < 512) {
    const uint32_t k = static_cast<uint32_t>(
        rng_.UniformRange(config_.grow_nodes_min, config_.grow_nodes_max));
    const size_t t = PickTree();
    if (t == kNoTree) break;
    ODBGC_RETURN_IF_ERROR(GrowSubtree(sink, &trees_[t], k));
    grown += k;
  }

  ++rounds_;
  return Status::Ok();
}

Result<uint64_t> WorkloadGenerator::CreateNode(TraceSink* sink, GenTree* tree,
                                               uint64_t parent,
                                               bool allow_large) {
  const bool large =
      allow_large && rng_.Bernoulli(config_.LargeObjectProbability());
  const uint32_t size =
      large ? config_.large_object_size
            : static_cast<uint32_t>(rng_.UniformRange(
                  config_.min_object_size, config_.max_object_size));
  const uint32_t num_slots = large ? 0 : config_.slots_per_object;
  const uint64_t id = next_id_++;

  ODBGC_RETURN_IF_ERROR(sink->Append(
      TraceEvent::Alloc(id, size, num_slots, parent, large ? 1 : 0)));
  allocated_bytes_ += size;
  live_bytes_ += size;

  GenNode node;
  node.parent = parent;
  node.size = size;
  node.large = large;
  nodes_.emplace(id, node);
  AddToTree(tree, id);

  // Dense edge: slot 2 points at a pre-existing node of this tree —
  // usually a recently created one (clustered connectivity), sometimes a
  // uniformly random one. Index range excludes self (just appended).
  if (!large && config_.slots_per_object >= 3 && tree->nodes.size() >= 2 &&
      rng_.Bernoulli(config_.dense_edge_prob)) {
    const size_t n = tree->nodes.size() - 1;
    size_t lo = 0;
    if (n > config_.dense_window &&
        rng_.Bernoulli(config_.dense_local_fraction)) {
      lo = n - config_.dense_window;
    }
    const uint64_t target =
        tree->nodes[lo + rng_.UniformInt(n - lo)];
    ODBGC_RETURN_IF_ERROR(sink->Append(TraceEvent::WriteSlot(id, 2, target)));
  }
  return id;
}

Status WorkloadGenerator::BuildTree(TraceSink* sink, uint32_t node_count) {
  trees_.push_back(GenTree{});
  const size_t tree_index = trees_.size() - 1;

  auto root = CreateNode(sink, &trees_[tree_index], 0, /*allow_large=*/false);
  ODBGC_RETURN_IF_ERROR(root.status());
  trees_[tree_index].root = *root;
  ODBGC_RETURN_IF_ERROR(sink->Append(TraceEvent::AddRoot(*root)));

  uint32_t created = 1;
  std::deque<uint64_t> frontier{*root};
  while (created < node_count && !frontier.empty()) {
    const uint64_t parent = frontier.front();
    frontier.pop_front();
    for (uint32_t slot = 0; slot < 2 && created < node_count; ++slot) {
      auto child =
          CreateNode(sink, &trees_[tree_index], parent, /*allow_large=*/true);
      ODBGC_RETURN_IF_ERROR(child.status());
      nodes_[parent].children[slot] = *child;
      ODBGC_RETURN_IF_ERROR(
          sink->Append(TraceEvent::WriteSlot(parent, slot, *child)));
      ++created;
      if (!nodes_[*child].large) frontier.push_back(*child);
    }
  }
  return Status::Ok();
}

Status WorkloadGenerator::GrowSubtree(TraceSink* sink, GenTree* tree,
                                      uint32_t node_count) {
  if (tree->nodes.empty()) return Status::Ok();

  // Find an attachment point: a non-large node with a free child slot.
  // Leaves are plentiful, so rejection sampling converges fast.
  uint64_t attach = 0;
  for (int attempt = 0; attempt < 64 && attach == 0; ++attempt) {
    const uint64_t candidate =
        tree->nodes[rng_.UniformInt(tree->nodes.size())];
    const GenNode& node = nodes_.at(candidate);
    if (!node.large && (node.children[0] == 0 || node.children[1] == 0)) {
      attach = candidate;
    }
  }
  if (attach == 0) return Status::Ok();  // Saturated tree; skip.

  uint32_t created = 0;
  std::deque<uint64_t> frontier{attach};
  while (created < node_count && !frontier.empty()) {
    const uint64_t parent = frontier.front();
    frontier.pop_front();
    for (uint32_t slot = 0; slot < 2 && created < node_count; ++slot) {
      if (nodes_.at(parent).children[slot] != 0) continue;
      auto child = CreateNode(sink, tree, parent, /*allow_large=*/true);
      ODBGC_RETURN_IF_ERROR(child.status());
      nodes_[parent].children[slot] = *child;
      ODBGC_RETURN_IF_ERROR(
          sink->Append(TraceEvent::WriteSlot(parent, slot, *child)));
      ++created;
      if (!nodes_[*child].large) frontier.push_back(*child);
    }
  }
  return Status::Ok();
}

Result<bool> WorkloadGenerator::DeleteRandomEdge(TraceSink* sink) {
  if (nodes_.empty()) return false;

  // Uniform over tree edges = uniform over non-root nodes: pick a tree
  // weighted by node count, then a node within it, rejecting roots.
  for (int attempt = 0; attempt < 32; ++attempt) {
    uint64_t pick = rng_.UniformInt(nodes_.size());
    size_t tree_index = kNoTree;
    for (size_t t = 0; t < trees_.size(); ++t) {
      if (pick < trees_[t].nodes.size()) {
        tree_index = t;
        break;
      }
      pick -= trees_[t].nodes.size();
    }
    if (tree_index == kNoTree) continue;
    GenTree& tree = trees_[tree_index];
    const uint64_t victim = tree.nodes[pick];
    const GenNode& node = nodes_.at(victim);
    if (node.parent == 0) continue;  // Tree root: no in-edge to delete.

    const GenNode& parent = nodes_.at(node.parent);
    const uint32_t slot = parent.children[0] == victim ? 0 : 1;
    assert(parent.children[slot] == victim);
    ODBGC_RETURN_IF_ERROR(
        sink->Append(TraceEvent::WriteSlot(node.parent, slot, 0)));
    nodes_[node.parent].children[slot] = 0;
    DetachSubtree(&tree, victim);
    return true;
  }
  return false;
}

void WorkloadGenerator::DetachSubtree(GenTree* tree, uint64_t node) {
  std::deque<uint64_t> queue{node};
  std::vector<uint64_t> doomed;
  while (!queue.empty()) {
    const uint64_t id = queue.front();
    queue.pop_front();
    doomed.push_back(id);
    const GenNode& n = nodes_.at(id);
    for (uint64_t child : n.children) {
      if (child != 0) queue.push_back(child);
    }
  }
  for (uint64_t id : doomed) {
    live_bytes_ -= nodes_.at(id).size;
    RemoveFromTree(tree, id);
    tree_of_node_.erase(id);
    nodes_.erase(id);
  }
}

Status WorkloadGenerator::Traverse(TraceSink* sink) {
  const double r = rng_.UniformDouble();
  bool breadth_first;
  if (r < config_.p_breadth_first) {
    breadth_first = true;
  } else if (r < config_.p_breadth_first + config_.p_depth_first) {
    breadth_first = false;
  } else {
    return Status::Ok();  // No traversal this round.
  }

  const size_t t = PickTree();
  if (t == kNoTree) return Status::Ok();
  const GenTree& tree = trees_[t];
  if (tree.root == 0 || nodes_.count(tree.root) == 0) return Status::Ok();

  std::deque<uint64_t> work{tree.root};
  while (!work.empty()) {
    uint64_t id;
    if (breadth_first) {
      id = work.front();
      work.pop_front();
    } else {
      id = work.back();
      work.pop_back();
    }
    ODBGC_RETURN_IF_ERROR(sink->Append(TraceEvent::Visit(id)));
    if (rng_.Bernoulli(config_.visit_modify_prob)) {
      ODBGC_RETURN_IF_ERROR(sink->Append(TraceEvent::WriteData(id)));
    }
    const GenNode& node = nodes_.at(id);
    if (node.large) continue;
    for (uint32_t slot = 0; slot < 2; ++slot) {
      const uint64_t child = node.children[slot];
      if (child == 0) continue;
      // Reading the edge is an I/O-bearing event even if we then skip it.
      ODBGC_RETURN_IF_ERROR(sink->Append(TraceEvent::ReadSlot(id, slot)));
      if (!rng_.Bernoulli(config_.edge_skip_prob)) work.push_back(child);
    }
  }
  return Status::Ok();
}

void WorkloadGenerator::AddToTree(GenTree* tree, uint64_t id) {
  tree->index.emplace(id, tree->nodes.size());
  tree->nodes.push_back(id);
  tree_of_node_.emplace(id, static_cast<size_t>(tree - trees_.data()));
}

void WorkloadGenerator::RemoveFromTree(GenTree* tree, uint64_t id) {
  auto it = tree->index.find(id);
  if (it == tree->index.end()) return;
  const size_t pos = it->second;
  const uint64_t last = tree->nodes.back();
  tree->nodes[pos] = last;
  tree->index[last] = pos;
  tree->nodes.pop_back();
  tree->index.erase(it);
}

WorkloadGenerator::GenTree* WorkloadGenerator::TreeOf(uint64_t node) {
  auto it = tree_of_node_.find(node);
  return it == tree_of_node_.end() ? nullptr : &trees_[it->second];
}

size_t WorkloadGenerator::PickTree() {
  if (trees_.empty()) return kNoTree;
  return rng_.UniformInt(trees_.size());
}

}  // namespace odbgc
