#include "sim/simulator.h"

#include <chrono>

#include "core/reachability.h"
#include "util/phase_timer.h"
#include "workload/generator.h"

namespace odbgc {

Simulator::Simulator(const SimulationConfig& config) : config_(config) {
  HeapOptions heap_options = config_.heap;
  heap_options.seed = config_.seed;  // Policy randomness follows the run seed.
  heap_ = std::make_unique<CollectedHeap>(heap_options);
  if (SimObserver* observer = heap_->options().observer) {
    RunStartedEvent event;
    event.policy = heap_->options().policy_name;
    event.seed = config_.seed;
    observer->OnRunStarted(event);
  }
  next_snapshot_ = config_.snapshot_interval;
  // Pre-size the dense id table for the whole run (one entry per Alloc).
  dense_ids_.reserve(config_.workload.ExpectedObjectCount());
}

Result<ObjectId> Simulator::Resolve(uint64_t logical) const {
  if (logical == 0) return kNullObjectId;
  if (logical <= dense_ids_.size()) return dense_ids_[logical - 1];
  auto it = sparse_ids_.find(logical);
  if (it == sparse_ids_.end()) {
    return Status::NotFound("trace references unknown object " +
                            std::to_string(logical));
  }
  return it->second;
}

Status Simulator::Append(const TraceEvent& event) {
  ScopedWallTimer apply_timer(heap_->options().profile_hot_paths
                                  ? heap_->wall_timers()->trace_apply
                                  : nullptr);
  switch (event.kind) {
    case EventKind::kAlloc: {
      const uint64_t logical = event.object;
      const bool in_sequence = logical == dense_ids_.size() + 1;
      if ((logical != 0 && logical <= dense_ids_.size()) ||
          sparse_ids_.count(logical) != 0) {
        return Status::Corruption("trace allocates duplicate object id " +
                                  std::to_string(logical));
      }
      auto parent = Resolve(event.parent_hint);
      // A stale placement hint is tolerable (the referent may have been
      // deleted in a foreign trace); fall back to no hint.
      const ObjectId hint = parent.ok() ? *parent : kNullObjectId;
      auto id = heap_->Allocate(event.size, event.num_slots, hint,
                                event.flags);
      ODBGC_RETURN_IF_ERROR(id.status());
      if (in_sequence) {
        dense_ids_.push_back(*id);
      } else {
        sparse_ids_.emplace(logical, *id);
      }
      break;
    }
    case EventKind::kWriteSlot: {
      auto source = Resolve(event.object);
      ODBGC_RETURN_IF_ERROR(source.status());
      auto target = Resolve(event.target);
      ODBGC_RETURN_IF_ERROR(target.status());
      ODBGC_RETURN_IF_ERROR(heap_->WriteSlot(*source, event.slot, *target));
      break;
    }
    case EventKind::kReadSlot: {
      auto source = Resolve(event.object);
      ODBGC_RETURN_IF_ERROR(source.status());
      ODBGC_RETURN_IF_ERROR(heap_->ReadSlot(*source, event.slot).status());
      break;
    }
    case EventKind::kVisit: {
      auto object = Resolve(event.object);
      ODBGC_RETURN_IF_ERROR(object.status());
      ODBGC_RETURN_IF_ERROR(heap_->VisitObject(*object));
      break;
    }
    case EventKind::kWriteData: {
      auto object = Resolve(event.object);
      ODBGC_RETURN_IF_ERROR(object.status());
      ODBGC_RETURN_IF_ERROR(heap_->WriteData(*object));
      break;
    }
    case EventKind::kAddRoot: {
      auto object = Resolve(event.object);
      ODBGC_RETURN_IF_ERROR(object.status());
      ODBGC_RETURN_IF_ERROR(heap_->AddRoot(*object));
      break;
    }
    case EventKind::kRemoveRoot: {
      auto object = Resolve(event.object);
      ODBGC_RETURN_IF_ERROR(object.status());
      ODBGC_RETURN_IF_ERROR(heap_->RemoveRoot(*object));
      break;
    }
  }

  ++events_;
  MaybeSnapshot();
  return Status::Ok();
}

void Simulator::MaybeSnapshot() {
  if (config_.snapshot_interval == 0 || events_ < next_snapshot_) return;
  next_snapshot_ += config_.snapshot_interval;

  const double x = static_cast<double>(events_);
  database_size_kb_.Add(
      x, static_cast<double>(heap_->store().total_bytes()) / 1024.0);
  if (config_.census_at_snapshots) {
    RunCensus();
    unreclaimed_garbage_kb_.Add(
        x, static_cast<double>(cached_garbage_bytes_) / 1024.0);
  }
}

uint64_t Simulator::HeapFingerprint() const {
  const HeapStats& s = heap_->stats();
  uint64_t h = 1469598103934665603ull;  // FNV-1a over the counters.
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(s.objects_allocated);
  mix(s.pointer_stores);
  mix(s.pointer_overwrites);
  mix(s.collections);
  mix(s.full_collections);
  mix(s.garbage_bytes_reclaimed);
  mix(heap_->store().roots().size());
  return h;
}

void Simulator::RunCensus() {
  SimObserver* const observer = heap_->options().observer;
  const auto phase_start = observer != nullptr
                               ? std::chrono::steady_clock::now()
                               : std::chrono::steady_clock::time_point{};
  {
    ScopedWallTimer timer(heap_->wall_timers()->census);
    census_engine_.CensusInto(heap_->store(), &census_scratch_);
  }
  if (observer != nullptr) {
    PhaseEvent event;
    event.phase = "census";
    event.wall_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - phase_start)
            .count());
    observer->OnPhase(event);
  }
  census_cache_valid_ = true;
  census_cache_events_ = events_;
  census_cache_heap_fingerprint_ = HeapFingerprint();
  cached_garbage_bytes_ = census_scratch_.total_garbage_bytes;
  cached_live_bytes_ = census_scratch_.total_live_bytes;
}

void Simulator::ResetMeasurementForWarmStart() {
  // Measurements restart; the database and buffer contents stay warm.
  heap_->ResetMeasurement();
  events_ = 0;
  next_snapshot_ = config_.snapshot_interval;
  census_cache_valid_ = false;
  unreclaimed_garbage_kb_ = TimeSeries("unreclaimed_garbage_kb");
  database_size_kb_ = TimeSeries("database_size_kb");
}

Status Simulator::Run() {
  ODBGC_RETURN_IF_ERROR(Validate(config_));
  WorkloadGenerator generator(config_.workload, config_.seed);
  if (config_.warm_start) {
    ODBGC_RETURN_IF_ERROR(generator.BuildInitialDatabase(this));
    ResetMeasurementForWarmStart();
  }
  return generator.Generate(this);
}

SimulationResult Simulator::Finish() {
  SimulationResult result;
  result.policy = heap_->options().policy;
  result.policy_name = heap_->options().policy_name;
  result.seed = config_.seed;
  result.device = heap_->options().device;
  result.app_events = events_;

  const BufferStats buffer = heap_->buffer().stats();
  result.app_io = buffer.app_io();
  result.gc_io = buffer.gc_io();
  result.buffer_stats = buffer;
  result.disk_stats = heap_->device().stats();
  result.estimated_device_time_ms = heap_->device().EstimateTimeMs();
  result.measured = heap_->device().MeasuredStats();
  result.metrics = heap_->metrics()->Snapshot();

  const HeapStats& heap_stats = heap_->stats();
  result.heap_stats = heap_stats;
  result.max_storage_bytes = heap_stats.max_total_bytes;
  result.max_partitions = heap_stats.max_partitions;
  result.final_partitions = heap_->store().partition_count();
  result.collections = heap_stats.collections;
  result.garbage_reclaimed_bytes = heap_stats.garbage_bytes_reclaimed;
  result.live_bytes_copied = heap_stats.live_bytes_copied;
  result.bytes_allocated = heap_stats.bytes_allocated;
  result.pointer_overwrites = heap_stats.pointer_overwrites;

  // Reuse the snapshot census if one already ran at this exact event
  // count with the heap untouched since (the common census_at_snapshots
  // case, where the last snapshot lands on the final event).
  if (!(census_cache_valid_ && census_cache_events_ == events_ &&
        census_cache_heap_fingerprint_ == HeapFingerprint())) {
    RunCensus();
  }
  result.unreclaimed_garbage_bytes = cached_garbage_bytes_;
  result.final_live_bytes = cached_live_bytes_;
  result.remset_entries = heap_->index().entry_count();

  result.unreclaimed_garbage_kb = unreclaimed_garbage_kb_;
  result.database_size_kb = database_size_kb_;

  if (SimObserver* observer = heap_->options().observer) {
    RunFinishedEvent event;
    event.policy = result.policy_name;
    event.seed = result.seed;
    event.app_events = result.app_events;
    event.app_io = result.app_io;
    event.gc_io = result.gc_io;
    event.garbage_reclaimed_bytes = result.garbage_reclaimed_bytes;
    observer->OnRunFinished(event);
  }
  return result;
}

}  // namespace odbgc
