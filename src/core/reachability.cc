#include "core/reachability.h"

#include <algorithm>
#include <cassert>
#include <deque>

namespace odbgc {

void ReachabilityAnalyzer::BeginEpoch(const ObjectStore& store) {
  ++epoch_;
  if (epoch_ == 0) {
    // uint32 epoch wrapped (one wrap per ~4 billion censuses): stale
    // stamps could alias the new epoch, so clear once and restart at 1.
    std::fill(live_stamp_.begin(), live_stamp_.end(), 0);
    std::fill(aux_stamp_.begin(), aux_stamp_.end(), 0);
    epoch_ = 1;
  }
  const size_t limit = static_cast<size_t>(store.id_limit());
  if (live_stamp_.size() < limit) {
    // Zero-fill is correct for any epoch: 0 is never a live epoch value.
    live_stamp_.resize(limit, 0);
    aux_stamp_.resize(limit, 0);
    aux_value_.resize(limit, 0);
  }
}

void ReachabilityAnalyzer::MarkLiveSet(const ObjectStore& store) {
  BeginEpoch(store);
  worklist_.clear();
  worklist_.reserve(store.object_count());
  for (ObjectId root : store.roots()) {
    assert(root.value < live_stamp_.size());
    uint32_t& stamp = live_stamp_[root.value];
    if (stamp == epoch_) continue;
    stamp = epoch_;
    worklist_.push_back(root);
  }
  while (!worklist_.empty()) {
    const ObjectId id = worklist_.back();
    worklist_.pop_back();
    const ObjectStore::ObjectInfo* info = store.Lookup(id);
    if (info == nullptr) continue;  // Dangling root.
    for (ObjectId child : info->slots) {
      if (child.is_null()) continue;
      uint32_t& stamp = live_stamp_[child.value];
      if (stamp == epoch_) continue;
      if (!store.Exists(child)) continue;
      stamp = epoch_;
      worklist_.push_back(child);
    }
  }
}

void ReachabilityAnalyzer::CensusInto(const ObjectStore& store,
                                      GarbageCensus* census) {
  MarkLiveSet(store);

  const size_t partition_count = store.partition_count();
  census->garbage_bytes_per_partition.assign(partition_count, 0);
  census->garbage_objects_per_partition.assign(partition_count, 0);
  census->collectable_bytes_per_partition.assign(partition_count, 0);
  census->total_garbage_bytes = 0;
  census->total_garbage_objects = 0;
  census->total_collectable_bytes = 0;
  census->total_live_bytes = 0;
  census->total_live_objects = 0;

  dead_.clear();
  for (size_t pid = 0; pid < partition_count; ++pid) {
    for (const auto& [offset, id] : store.partition(pid).objects_by_offset()) {
      const ObjectStore::ObjectInfo* info = store.Lookup(id);
      if (info == nullptr) continue;
      if (IsLive(id)) {
        census->total_live_bytes += info->size;
        ++census->total_live_objects;
      } else {
        census->garbage_bytes_per_partition[pid] += info->size;
        ++census->garbage_objects_per_partition[pid];
        census->total_garbage_bytes += info->size;
        ++census->total_garbage_objects;
        dead_.push_back(
            {id, static_cast<PartitionId>(pid), info->size});
      }
    }
  }

  // Kept-but-dead: garbage with a cross-partition in-edge from another
  // dead object (only dead sources can reference garbage), plus everything
  // those objects reach through intra-partition dead edges — the
  // collector's conservative remembered-set treatment keeps all of it.
  // "Dead" membership is (resident && !live), so the aux stamps replace
  // the old per-census kept-set allocation.
  worklist_.clear();
  for (const DeadObject& dead : dead_) {
    const ObjectStore::ObjectInfo* info = store.Lookup(dead.id);
    for (ObjectId child : info->slots) {
      if (child.is_null()) continue;
      const ObjectStore::ObjectInfo* child_info = store.Lookup(child);
      if (child_info == nullptr || IsLive(child) ||
          child_info->partition == dead.partition) {
        continue;
      }
      if (AuxMark(child)) worklist_.push_back(child);
    }
  }
  while (!worklist_.empty()) {
    const ObjectId id = worklist_.back();
    worklist_.pop_back();
    const ObjectStore::ObjectInfo* info = store.Lookup(id);
    for (ObjectId child : info->slots) {
      if (child.is_null()) continue;
      const ObjectStore::ObjectInfo* child_info = store.Lookup(child);
      if (child_info == nullptr || IsLive(child) ||
          child_info->partition != info->partition) {
        continue;
      }
      if (AuxMark(child)) worklist_.push_back(child);
    }
  }

  for (const DeadObject& dead : dead_) {
    if (AuxMarked(dead.id)) continue;
    census->collectable_bytes_per_partition[dead.partition] += dead.size;
    census->total_collectable_bytes += dead.size;
  }
}

GarbageCensus ReachabilityAnalyzer::Census(const ObjectStore& store) {
  GarbageCensus census;
  CensusInto(store, &census);
  return census;
}

namespace {

// Dense view of the dead-object subgraph used by Anatomy.
struct DeadGraph {
  std::vector<ObjectId> ids;
  std::vector<PartitionId> partitions;
  std::vector<uint32_t> sizes;
  std::vector<std::vector<uint32_t>> out_edges;  // Dead -> dead only.
};

// Iterative Tarjan SCC over the dead graph; returns component id per node.
std::vector<uint32_t> StronglyConnectedComponents(const DeadGraph& g,
                                                  uint32_t* num_components) {
  const uint32_t n = static_cast<uint32_t>(g.ids.size());
  constexpr uint32_t kUnvisited = UINT32_MAX;
  std::vector<uint32_t> index(n, kUnvisited), lowlink(n, 0), component(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<uint32_t> stack;
  uint32_t next_index = 0, next_component = 0;

  struct Frame {
    uint32_t node;
    size_t edge;
  };
  std::vector<Frame> call_stack;

  for (uint32_t start = 0; start < n; ++start) {
    if (index[start] != kUnvisited) continue;
    call_stack.push_back({start, 0});
    index[start] = lowlink[start] = next_index++;
    stack.push_back(start);
    on_stack[start] = true;

    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const uint32_t v = frame.node;
      if (frame.edge < g.out_edges[v].size()) {
        const uint32_t w = g.out_edges[v][frame.edge++];
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          call_stack.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
      } else {
        if (lowlink[v] == index[v]) {
          for (;;) {
            const uint32_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            component[w] = next_component;
            if (w == v) break;
          }
          ++next_component;
        }
        call_stack.pop_back();
        if (!call_stack.empty()) {
          const uint32_t parent = call_stack.back().node;
          lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
        }
      }
    }
  }
  *num_components = next_component;
  return component;
}

}  // namespace

GarbageAnatomy ReachabilityAnalyzer::Anatomy(const ObjectStore& store) {
  MarkLiveSet(store);

  // Dense dead graph; the aux stamps map id -> dead-graph index without a
  // per-call hash map. (Anatomy itself is a cold path — ablations and
  // tests — but it shares the hot marking core.)
  DeadGraph g;
  for (size_t pid = 0; pid < store.partition_count(); ++pid) {
    for (const auto& [offset, id] : store.partition(pid).objects_by_offset()) {
      if (IsLive(id)) continue;
      const ObjectStore::ObjectInfo* info = store.Lookup(id);
      if (info == nullptr) continue;
      AuxMark(id);
      aux_value_[id.value] = static_cast<uint32_t>(g.ids.size());
      g.ids.push_back(id);
      g.partitions.push_back(static_cast<PartitionId>(pid));
      g.sizes.push_back(info->size);
    }
  }
  g.out_edges.resize(g.ids.size());
  for (uint32_t i = 0; i < g.ids.size(); ++i) {
    const ObjectStore::ObjectInfo* info = store.Lookup(g.ids[i]);
    for (ObjectId child : info->slots) {
      if (child.is_null()) continue;
      if (AuxMarked(child)) g.out_edges[i].push_back(aux_value_[child.value]);
    }
  }

  const uint32_t n = static_cast<uint32_t>(g.ids.size());
  GarbageAnatomy anatomy;
  if (n == 0) return anatomy;

  // --- Stuck garbage: reachable from an SCC containing a cross-partition
  // edge. Such a cycle of dead objects keeps itself registered in
  // remembered sets forever, and everything it references stays protected.
  uint32_t num_components = 0;
  const std::vector<uint32_t> component =
      StronglyConnectedComponents(g, &num_components);
  std::vector<bool> component_self_sustaining(num_components, false);
  for (uint32_t v = 0; v < n; ++v) {
    for (uint32_t w : g.out_edges[v]) {
      if (component[v] == component[w] &&
          g.partitions[v] != g.partitions[w]) {
        component_self_sustaining[component[v]] = true;
      }
    }
  }
  std::vector<bool> stuck(n, false);
  std::deque<uint32_t> queue;
  for (uint32_t v = 0; v < n; ++v) {
    if (component_self_sustaining[component[v]]) {
      stuck[v] = true;
      queue.push_back(v);
    }
  }
  while (!queue.empty()) {
    const uint32_t v = queue.front();
    queue.pop_front();
    for (uint32_t w : g.out_edges[v]) {
      if (!stuck[w]) {
        stuck[w] = true;
        queue.push_back(w);
      }
    }
  }

  // --- Locally collectable *now*: dead objects a collection of their own
  // partition would reclaim at this instant. Kept instead are dead objects
  // with a cross-partition dead in-edge (they look like remembered-set
  // roots) plus everything they reach through intra-partition dead edges
  // (the collector traverses kept objects).
  std::vector<bool> kept(n, false);
  for (uint32_t v = 0; v < n; ++v) {
    for (uint32_t w : g.out_edges[v]) {
      if (g.partitions[v] != g.partitions[w] && !kept[w]) {
        kept[w] = true;
        queue.push_back(w);
      }
    }
  }
  while (!queue.empty()) {
    const uint32_t v = queue.front();
    queue.pop_front();
    for (uint32_t w : g.out_edges[v]) {
      if (g.partitions[v] == g.partitions[w] && !kept[w]) {
        kept[w] = true;
        queue.push_back(w);
      }
    }
  }

  for (uint32_t v = 0; v < n; ++v) {
    if (stuck[v]) {
      anatomy.cross_partition_cycle_bytes += g.sizes[v];
    } else if (kept[v]) {
      anatomy.nepotism_bytes += g.sizes[v];
    } else {
      anatomy.locally_collectable_bytes += g.sizes[v];
    }
  }
  return anatomy;
}

std::unordered_set<ObjectId> ComputeLiveSet(const ObjectStore& store) {
  // A plain breadth-first reference marker, independent of the analyzer's
  // epoch stamps. Callers only test membership: the standard leaves
  // unordered_set iteration order unspecified.
  std::unordered_set<ObjectId> live;
  std::deque<ObjectId> queue;
  for (ObjectId root : store.roots()) {
    if (live.insert(root).second) queue.push_back(root);
  }
  while (!queue.empty()) {
    const ObjectId id = queue.front();
    queue.pop_front();
    const ObjectStore::ObjectInfo* info = store.Lookup(id);
    if (info == nullptr) continue;
    for (ObjectId child : info->slots) {
      if (!child.is_null() && store.Exists(child) &&
          live.insert(child).second) {
        queue.push_back(child);
      }
    }
  }
  return live;
}

GarbageCensus ComputeGarbageCensus(const ObjectStore& store) {
  ReachabilityAnalyzer analyzer;
  return analyzer.Census(store);
}

GarbageAnatomy ComputeGarbageAnatomy(const ObjectStore& store) {
  ReachabilityAnalyzer analyzer;
  return analyzer.Anatomy(store);
}

}  // namespace odbgc
