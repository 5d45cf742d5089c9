#include "sim/concurrent_simulator.h"

#include <cassert>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "service/heap_service.h"
#include "sim/spec.h"
#include "storage/device_registry.h"

namespace odbgc {

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

ConcurrentSimulator::ConcurrentSimulator(const SimulationConfig& config)
    : config_(config) {}

uint32_t ConcurrentSimulator::shard_count() const {
  return config_.trace_shards != 0 ? config_.trace_shards
                                   : config_.mutator_threads;
}

uint64_t ConcurrentSimulator::ShardSeed(uint64_t base_seed, uint32_t shard) {
  // Mix the pair through two splitmix rounds so shard streams are
  // decorrelated from the base stream and from each other even for
  // adjacent seeds/shards.
  return SplitMix64(SplitMix64(base_seed) ^ (shard + 1));
}

SimulationConfig ConcurrentSimulator::ShardConfig(uint32_t index) const {
  const uint32_t shards = shard_count();
  SimulationConfig shard = config_;
  // A shard config is a plain serial config: the serial oracle replays it
  // through Simulator unchanged.
  shard.mutator_threads = 1;
  shard.trace_shards = 0;
  shard.seed = ShardSeed(config_.seed, index);
  const uint64_t total = config_.workload.total_alloc_bytes;
  uint64_t slice;
  if (config_.shard_weights.empty()) {
    // Proportional slice of the allocation volume (live target scales
    // with it); the remainder spreads over the leading shards so slices
    // differ by at most one byte.
    const uint64_t base = total / shards;
    const uint64_t extra = index < (total % shards) ? 1 : 0;
    slice = base + extra;
  } else {
    // Weighted split by cumulative-sum floors: shard i gets
    // floor(total * cum[i+1]/W) - floor(total * cum[i]/W), which
    // telescopes to exactly `total` over all shards.
    double cum_before = 0.0;
    double cum_total = 0.0;
    for (uint32_t i = 0; i < shards; ++i) {
      if (i < index) cum_before += config_.shard_weights[i];
      cum_total += config_.shard_weights[i];
    }
    const double cum_after = cum_before + config_.shard_weights[index];
    const auto floor_at = [&](double cum) {
      return static_cast<uint64_t>(static_cast<double>(total) *
                                   (cum / cum_total));
    };
    slice = floor_at(cum_after) - floor_at(cum_before);
  }
  shard.workload = config_.workload.WithTotalAllocation(slice);
  // Stateful backends (file paths) must not collide across shards; the
  // derived seed is shard-unique, so the per-run suffix disambiguates.
  shard.heap.device_spec = PerRunDeviceSpec(
      config_.heap.device_spec,
      config_.heap.policy_name + "-shard" + std::to_string(index),
      shard.seed);
  return shard;
}

Status ConcurrentSimulator::ValidateConcurrency() const {
  const uint32_t threads = config_.mutator_threads;
  if (threads == 0) {
    return Status::InvalidArgument("mutator_threads must be >= 1");
  }
  if (threads > shard_count()) {
    // A thread with no shard to own would idle the whole run; this is a
    // mis-specified experiment, not a degraded one.
    return Status::InvalidArgument(
        "mutator_threads (" + std::to_string(threads) +
        ") exceeds trace shard count (" + std::to_string(shard_count()) +
        "); raise trace_shards or lower mutator_threads");
  }
  if (!config_.shard_weights.empty()) {
    if (config_.shard_weights.size() != shard_count()) {
      return Status::InvalidArgument(
          "shard_weights size (" +
          std::to_string(config_.shard_weights.size()) +
          ") must equal the shard count (" + std::to_string(shard_count()) +
          ")");
    }
    for (double w : config_.shard_weights) {
      if (!(w > 0.0)) {
        return Status::InvalidArgument(
            "shard_weights must all be positive");
      }
    }
  }
  return Status::Ok();
}

Status ConcurrentSimulator::Run() {
  ODBGC_RETURN_IF_ERROR(ValidateConcurrency());
  std::vector<TenantSpec> tenants;
  for (uint32_t i = 0; i < shard_count(); ++i) {
    tenants.push_back(
        TenantSpec::Base(ShardConfig(i)).Named("shard" + std::to_string(i)));
  }
  // Shards share nothing but the fleet's frame arena: no admission
  // control, an arena whose budget is the sum of the shard quotas (so it
  // never squeezes, and each shard heap decides exactly as the serial
  // oracle's standalone Simulator does), and one round that runs every
  // shard to completion (a barrier per batch would idle the workers at
  // each step).
  // The service observer tags each shard's events with its index + 1.
  HeapService service(
      ServiceSpec::Hosting(std::move(tenants))
          .WithThreads(config_.mutator_threads)
          .WithWatermark(0.0)
          .WithStepsPerRound(std::numeric_limits<uint64_t>::max())
          .WithObserver(config_.heap.observer));
  ODBGC_RETURN_IF_ERROR(service.Run());
  shard_results_ = service.Finish().tenants;
  ran_ = true;
  return Status::Ok();
}

SimulationResult ConcurrentSimulator::AggregateResults(
    const std::vector<SimulationResult>& parts) {
  SimulationResult out;
  if (parts.empty()) return out;
  // Identity fields: every shard ran the same policy/device/replacement.
  out.policy = parts.front().policy;
  out.policy_name = parts.front().policy_name;
  out.seed = parts.front().seed;
  out.device = parts.front().device;
  out.replacement = parts.front().replacement;

  std::vector<std::vector<MetricSample>> metric_parts;
  metric_parts.reserve(parts.size());
  for (const SimulationResult& part : parts) {
    out.app_events += part.app_events;
    out.app_io += part.app_io;
    out.gc_io += part.gc_io;
    out.max_storage_bytes += part.max_storage_bytes;
    out.max_partitions += part.max_partitions;
    out.final_partitions += part.final_partitions;
    out.collections += part.collections;
    out.garbage_reclaimed_bytes += part.garbage_reclaimed_bytes;
    out.live_bytes_copied += part.live_bytes_copied;
    out.unreclaimed_garbage_bytes += part.unreclaimed_garbage_bytes;
    out.final_live_bytes += part.final_live_bytes;
    out.remset_entries += part.remset_entries;
    out.bytes_allocated += part.bytes_allocated;
    out.pointer_overwrites += part.pointer_overwrites;
    out.estimated_device_time_ms += part.estimated_device_time_ms;

    out.measured.measured = out.measured.measured || part.measured.measured;
    out.measured.reads += part.measured.reads;
    out.measured.writes += part.measured.writes;
    out.measured.fsyncs += part.measured.fsyncs;
    out.measured.batches += part.measured.batches;
    out.measured.readahead_hits += part.measured.readahead_hits;
    out.measured.readahead_misses += part.measured.readahead_misses;
    out.measured.prefetched_pages += part.measured.prefetched_pages;
    out.measured.wall_ms += part.measured.wall_ms;

    out.heap_stats.collections += part.heap_stats.collections;
    out.heap_stats.full_collections += part.heap_stats.full_collections;
    out.heap_stats.pointer_stores += part.heap_stats.pointer_stores;
    out.heap_stats.pointer_overwrites += part.heap_stats.pointer_overwrites;
    out.heap_stats.objects_allocated += part.heap_stats.objects_allocated;
    out.heap_stats.bytes_allocated += part.heap_stats.bytes_allocated;
    out.heap_stats.garbage_bytes_reclaimed +=
        part.heap_stats.garbage_bytes_reclaimed;
    out.heap_stats.garbage_objects_reclaimed +=
        part.heap_stats.garbage_objects_reclaimed;
    out.heap_stats.live_bytes_copied += part.heap_stats.live_bytes_copied;
    out.heap_stats.live_objects_copied += part.heap_stats.live_objects_copied;
    out.heap_stats.max_total_bytes += part.heap_stats.max_total_bytes;
    out.heap_stats.max_partitions += part.heap_stats.max_partitions;

    out.buffer_stats.hits += part.buffer_stats.hits;
    out.buffer_stats.misses += part.buffer_stats.misses;
    out.buffer_stats.reads_app += part.buffer_stats.reads_app;
    out.buffer_stats.reads_gc += part.buffer_stats.reads_gc;
    out.buffer_stats.writes_app += part.buffer_stats.writes_app;
    out.buffer_stats.writes_gc += part.buffer_stats.writes_gc;

    out.disk_stats.page_reads += part.disk_stats.page_reads;
    out.disk_stats.page_writes += part.disk_stats.page_writes;
    out.disk_stats.sequential_transfers +=
        part.disk_stats.sequential_transfers;
    out.disk_stats.random_transfers += part.disk_stats.random_transfers;

    metric_parts.push_back(part.metrics);
  }
  out.metrics = MergeMetricSamples(metric_parts);
  // Time series stay empty: sampling is a per-shard timeline, and the
  // shards' timelines are not mutually ordered.
  return out;
}

SimulationResult ConcurrentSimulator::Finish() {
  assert(ran_ && "Finish called before a successful Run");
  SimulationResult result = AggregateResults(shard_results_);
  // The aggregate's identity is the run's, not shard 0's.
  result.seed = config_.seed;
  return result;
}

}  // namespace odbgc
