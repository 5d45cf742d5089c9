#include "service/heap_service.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "buffer/frame_arena.h"
#include "observe/manifest.h"
#include "observe/observer.h"
#include "sim/simulator.h"
#include "storage/device_registry.h"
#include "trace/event.h"
#include "util/fork_join_pool.h"
#include "workload/generator.h"

namespace odbgc {

namespace {

// Buffers generated events for the service's batch loop.
class VectorSink : public TraceSink {
 public:
  explicit VectorSink(std::vector<TraceEvent>* out) : out_(out) {}
  Status Append(const TraceEvent& event) override {
    out_->push_back(event);
    return Status::Ok();
  }

 private:
  std::vector<TraceEvent>* const out_;
};

// Forced collections per barrier before the scheduler yields back to the
// admission controller: enough to shed a full round's growth, bounded so
// a pathological heap (nothing left to shed) cannot spin the barrier.
constexpr int kMaxForcedPerBarrier = 64;

// Sums the tenants' results into the fleet's aggregate, field by field:
// I/O, events, allocation, reclamation, remembered-set entries and
// estimated device time add up; max_storage/max_partitions sum the
// per-tenant high-water marks (the footprint bound of the fleet as a
// whole); the measured flags OR. Named metrics merge through the
// order-independent MergeMetricSamples. Time series are a per-tenant
// timeline, and tenants' timelines are not mutually ordered, so the
// aggregate's stay empty. Identity fields (policy, seed, device) come
// from the first part.
SimulationResult AggregateResults(const std::vector<SimulationResult>& parts) {
  SimulationResult out;
  if (parts.empty()) return out;
  out.policy = parts.front().policy;
  out.policy_name = parts.front().policy_name;
  out.seed = parts.front().seed;
  out.device = parts.front().device;

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
  return out;
}

}  // namespace

// Per-tenant execution state: a plain serial Simulator plus its generator
// stream, buffered one build phase / generator round at a time and applied
// in events_per_batch slices. Exactly one executor touches a TenantRun per
// round, and the barriers in between run on the service thread — the
// pool's fork and join edges sequence the handoffs.
struct HeapService::TenantRun {
  SimulationConfig config;
  std::string name;
  std::unique_ptr<SynchronizedObserver> tagged;
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<WorkloadGenerator> generator;
  std::vector<TraceEvent> buffer;
  size_t next_event = 0;
  bool built = false;
  bool pending_reset = false;  // Warm start: reset once build applies.
  bool done = false;
  Status status = Status::Ok();
  SimulationResult result;
};

HeapService::HeapService(ServiceSpec spec) : spec_(std::move(spec)) {}

HeapService::~HeapService() = default;

Status HeapService::Validate() const {
  if (spec_.tenants.empty()) {
    return Status::InvalidArgument("a service needs at least one tenant");
  }
  if (spec_.threads == 0) {
    return Status::InvalidArgument("threads must be >= 1");
  }
  if (spec_.events_per_batch == 0) {
    return Status::InvalidArgument("events_per_batch must be >= 1");
  }
  if (spec_.steps_per_round == 0) {
    return Status::InvalidArgument("steps_per_round must be >= 1");
  }
  if (spec_.admission_watermark < 0.0 || spec_.admission_watermark > 1.0) {
    return Status::InvalidArgument("admission_watermark must be in [0, 1]");
  }
  std::unordered_set<std::string> names;
  for (size_t i = 0; i < spec_.tenants.size(); ++i) {
    const TenantSpec& tenant = spec_.tenants[i];
    const std::string label =
        tenant.name.empty() ? "tenant" + std::to_string(i) : tenant.name;
    if (!names.insert(label).second) {
      return Status::InvalidArgument("duplicate tenant name: " + label);
    }
    if (tenant.departure_round != 0 &&
        tenant.departure_round <= tenant.arrival_round) {
      return Status::InvalidArgument(
          label + ": departure_round must be after arrival_round");
    }
    const Status valid = odbgc::Validate(tenant.config);
    if (!valid.ok()) {
      return Status(valid.code(), label + ": " + valid.message());
    }
  }
  return Status::Ok();
}

Status HeapService::PrepareTenants() {
  const size_t n = spec_.tenants.size();
  runs_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto run = std::make_unique<TenantRun>();
    run->config = spec_.tenants[i].config;
    run->name = spec_.tenants[i].name.empty()
                    ? "tenant" + std::to_string(i)
                    : spec_.tenants[i].name;
    // The fleet is the parallelism: a tenant's file device, if any, starts
    // no batch threads.
    run->config.heap.file_device.io_threads = 1;
    // Physically shared frames: the tenant's pool is a logical quota over
    // the fleet's arena.
    run->config.heap.shared_arena = arena_.get();
    // The service observer (or the tenant's own sink) watches every
    // tenant through a serializing wrapper tagged tenant index + 1, so 0
    // stays "standalone serial run".
    SimObserver* inner = spec_.observer != nullptr
                             ? spec_.observer
                             : run->config.heap.observer;
    if (inner != nullptr) {
      run->tagged = std::make_unique<SynchronizedObserver>(
          inner, &observer_mutex_, static_cast<uint32_t>(i) + 1);
      run->config.heap.observer = run->tagged.get();
    }
    // Tenant names are unique, so the per-run suffix keeps file paths
    // disjoint (other device specs pass through).
    run->config.heap.device_spec = PerRunDeviceSpec(
        run->config.heap.device_spec, run->name, run->config.seed);
    runs_.push_back(std::move(run));
  }
  return Status::Ok();
}

bool HeapService::Arrived(size_t tenant) const {
  return spec_.tenants[tenant].arrival_round <= rounds_;
}

const CollectedHeap* HeapService::tenant_heap(size_t tenant) const {
  const TenantRun& run = *runs_[tenant];
  return run.sim == nullptr ? nullptr : &run.sim->heap();
}

void HeapService::RunTenantRound(TenantRun* run) {
  // K-step batching: one worker wake (or one inline visit) services K
  // batches before the next barrier, so the barrier and the pool's
  // wake/park handoffs are amortized K-fold.
  for (uint64_t k = 0; k < spec_.steps_per_round && !run->done; ++k) {
    StepTenant(run);
  }
  if (run->done && run->sim != nullptr) {
    // A finished tenant's borrowed frames return to the arena right away
    // (no counter moves — its result is already finalized), so parked
    // residency never pins the shared budget.
    run->sim->heap().mutable_buffer().ReleaseArenaFrames();
  }
}

void HeapService::RetireDepartures() {
  for (size_t i = 0; i < runs_.size(); ++i) {
    const uint64_t departure = spec_.tenants[i].departure_round;
    if (departure == 0 || rounds_ < departure) continue;
    TenantRun& run = *runs_[i];
    if (run.done) continue;
    // A tenant retired before it ever started still leaves a well-formed
    // (empty) result behind: construct and immediately finalize it.
    if (run.sim == nullptr) {
      run.sim = std::make_unique<Simulator>(run.config);
    }
    run.result = run.sim->Finish();
    run.done = true;
    ++departures_;
    run.sim->heap().mutable_buffer().ReleaseArenaFrames();
  }
}

void HeapService::StepTenant(TenantRun* run) {
  if (run->done) return;
  // First batch: materialize the tenant on a worker, so construction
  // parallelizes across tenants too.
  if (run->sim == nullptr) {
    run->sim = std::make_unique<Simulator>(run->config);
    run->generator = std::make_unique<WorkloadGenerator>(
        run->config.workload, run->config.seed);
  }
  Simulator& sim = *run->sim;

  // Refill the buffer when drained: the build phase first, then one
  // generator round per refill, then tenant finalization.
  if (run->next_event >= run->buffer.size()) {
    run->buffer.clear();
    run->next_event = 0;
    VectorSink sink(&run->buffer);
    Status refill;
    if (!run->built) {
      refill = run->generator->BuildInitialDatabase(&sink);
      run->built = true;
      if (run->config.warm_start) run->pending_reset = true;
    } else if (!run->generator->Done()) {
      refill = run->generator->RunRound(&sink);
    } else {
      run->result = sim.Finish();
      run->done = true;
      return;
    }
    if (!refill.ok()) {
      run->status = refill;
      run->done = true;
      return;
    }
  }

  uint64_t in_batch = 0;
  while (in_batch < spec_.events_per_batch &&
         run->next_event < run->buffer.size()) {
    const Status applied = sim.Append(run->buffer[run->next_event]);
    ++run->next_event;
    ++in_batch;
    if (!applied.ok()) {
      run->status = applied;
      run->done = true;
      return;
    }
  }
  // Warm start: measurements reset the moment the build stream has fully
  // applied, before any round event (Simulator::Run's behaviour).
  if (run->pending_reset && run->next_event >= run->buffer.size()) {
    sim.ResetMeasurementForWarmStart();
    run->pending_reset = false;
  }
}

void HeapService::RefreshBudget() {
  for (size_t t = 0; t < runs_.size(); ++t) {
    TenantRun& run = *runs_[t];
    // A finished tenant's pool is released back to the shared budget (its
    // heap idles; a real service would shut it down) — otherwise parked
    // residency would pin the watermark high against the still-running
    // tenants with nothing left to shed.
    const bool active = run.sim != nullptr && !run.done;
    // A dormant (not yet arrived) tenant holds no slice of the budget —
    // its cap enters the ledger only once it can actually fault pages in.
    budget_.Update(t, active ? run.sim->heap().buffer().resident_pages() : 0,
                   Arrived(t) ? run.config.heap.buffer_pages : 0);
  }
}

void HeapService::CollectUnderPressure() {
  int forced = 0;
  while (budget_.OverWatermark() && forced < kMaxForcedPerBarrier) {
    // Rank every (tenant, partition): the tenant policy's within-heap
    // victim ordering (normalized so heaps are comparable) scaled by how
    // much of the shared budget the tenant is actually holding. Strict >
    // keeps ties on the lowest (tenant, partition) — deterministic.
    size_t best_tenant = runs_.size();
    PartitionId best_victim = kInvalidPartition;
    double best_rank = -1.0;
    for (size_t t = 0; t < runs_.size(); ++t) {
      TenantRun& run = *runs_[t];
      if (run.sim == nullptr || run.done) continue;
      CollectedHeap& heap = run.sim->heap();
      if (heap.policy().kind() == PolicyKind::kNoCollection) continue;
      const std::vector<PartitionId> candidates = heap.CollectionCandidates();
      if (candidates.empty()) continue;
      double max_score = 0.0;
      for (PartitionId p : candidates) {
        max_score = std::max(max_score, heap.policy().Score(p));
      }
      const double pressure = budget_.TenantPressure(t);
      for (PartitionId p : candidates) {
        const double norm =
            max_score > 0.0 ? heap.policy().Score(p) / max_score : 1.0;
        const double rank = norm * pressure;
        if (rank > best_rank) {
          best_rank = rank;
          best_tenant = t;
          best_victim = p;
        }
      }
    }
    if (best_tenant == runs_.size()) break;  // Nothing collectable.

    const uint64_t before = budget_.occupancy();
    TenantRun& run = *runs_[best_tenant];
    const auto collected = run.sim->heap().CollectPartition(best_victim);
    if (!collected.status().ok()) {
      run.status = collected.status();
      run.done = true;
      break;
    }
    ++forced_collections_;
    ++forced;
    RefreshBudget();
    // The victim's pages were discarded; if occupancy did not retreat
    // (copy-target faults ate the savings), more forcing won't help.
    if (budget_.occupancy() >= before) break;
  }
}

void HeapService::ComputeAdmissions(std::vector<char>* admitted) {
  const size_t n = runs_.size();
  // Admit in tenant id order while the projection — current occupancy
  // plus every admitted tenant's allowance (the most its pool can grow in
  // one round) — stays under the watermark. The bound this yields:
  // post-round occupancy <= watermark + one tenant's allowance. Dormant
  // tenants (arrival_round in the future) are neither admitted nor
  // counted as stalled — they are not in the fleet yet.
  uint64_t projected = budget_.occupancy();
  bool any = false;
  size_t first_pending = n;
  for (size_t i = 0; i < n; ++i) {
    (*admitted)[i] = 0;
    if (runs_[i]->done || !Arrived(i)) continue;
    if (first_pending == n) first_pending = i;
    if (!budget_.enabled()) {
      (*admitted)[i] = 1;
      any = true;
      continue;
    }
    if (projected < budget_.watermark_frames()) {
      (*admitted)[i] = 1;
      projected += budget_.Allowance(i);
      any = true;
    }
  }
  // Progress guarantee: when nobody fits (occupancy stuck at/above the
  // watermark with nothing left to shed), one tenant runs anyway so the
  // service always terminates.
  if (budget_.enabled() && !any && first_pending < n) {
    (*admitted)[first_pending] = 1;
    ++forced_admissions_;
  }
  for (size_t i = 0; i < n; ++i) {
    if (!runs_[i]->done && Arrived(i) && (*admitted)[i] == 0) {
      ++admission_stalls_;
      ++tenant_stalls_[i];
    }
  }
}

Status HeapService::WriteManifests() const {
  if (spec_.manifest_dir.empty()) return Status::Ok();
  for (size_t i = 0; i < runs_.size(); ++i) {
    const TenantRun& run = *runs_[i];
    // Per-tenant service telemetry rides along in the optional `service`
    // section (digest-excluded, like `measured`): the standalone result
    // surface stays byte-identical, and odbgc-report's tenants table gets
    // its occupancy/stall columns.
    ManifestServiceInfo service;
    service.peak_resident_frames = budget_.peak_resident(i);
    service.admission_stalls = tenant_stalls_[i];
    const Json manifest = BuildManifest(run.config, run.result, &service);
    const std::string path =
        spec_.manifest_dir + "/" + run.name + "-" +
        ManifestFileName(run.result.policy_name, run.result.seed);
    ODBGC_RETURN_IF_ERROR(WriteManifestFile(path, manifest));
  }
  return Status::Ok();
}

Status HeapService::Run() {
  ODBGC_RETURN_IF_ERROR(Validate());
  const size_t n = spec_.tenants.size();
  tenant_stalls_.assign(n, 0);

  uint64_t total_cap = 0;
  for (const TenantSpec& tenant : spec_.tenants) {
    total_cap += tenant.config.heap.buffer_pages;
  }
  const uint64_t budget_frames =
      spec_.shared_frame_budget != 0 ? spec_.shared_frame_budget : total_cap;
  // The arena is sized to the budget: physical capacity and the ledger's
  // denominator are the same number, so "over budget" means "the frames
  // physically ran out", not just an accounting overdraft.
  arena_ = std::make_unique<SharedFrameArena>(budget_frames);
  ODBGC_RETURN_IF_ERROR(PrepareTenants());
  budget_.Configure(budget_frames, spec_.admission_watermark, n);
  RefreshBudget();  // Caps registered; occupancy 0.

  ForkJoinPool pool(spec_.threads);

  const auto all_done = [this] {
    for (const auto& run : runs_) {
      if (!run->done) return false;
    }
    return true;
  };

  // The first round goes through admission control like every other one —
  // otherwise an overcommitted fleet would all fault in at once and the
  // occupancy bound would not hold from round 1.
  std::vector<char> admitted(n, 1);
  ComputeAdmissions(&admitted);
  std::vector<TenantRun*> runnable;
  runnable.reserve(n);
  while (!all_done()) {
    runnable.clear();
    for (size_t i = 0; i < n; ++i) {
      if (admitted[i] != 0 && !runs_[i]->done) {
        runnable.push_back(runs_[i].get());
      }
    }
    // At one thread, or with at most one runnable tenant, the pool runs
    // the round inline in tenant order: byte-stable end to end at one
    // thread, and no wake/park handoff when there is nothing to overlap.
    pool.Run(runnable.size(),
             [this, &runnable](size_t i) { RunTenantRound(runnable[i]); });
    ++rounds_;

    // Barrier: departures, accounting, forced collections, admission.
    RetireDepartures();
    RefreshBudget();
    budget_.NotePeak();
    if (budget_.enabled()) CollectUnderPressure();
    ComputeAdmissions(&admitted);
  }

  ran_ = true;
  // First tenant error in tenant order — deterministic regardless of
  // which worker hit it first.
  for (const auto& run : runs_) {
    ODBGC_RETURN_IF_ERROR(run->status);
  }
  return WriteManifests();
}

ServiceResult HeapService::Finish() {
  assert(ran_ && "Finish called before a successful Run");
  ServiceResult out;
  out.tenants.reserve(runs_.size());
  for (const auto& run : runs_) {
    out.tenants.push_back(run->result);
    out.tenant_names.push_back(run->name);
  }
  out.aggregate = AggregateResults(out.tenants);
  for (const SimulationResult& result : out.tenants) {
    if (result.policy_name != out.tenants.front().policy_name) {
      out.aggregate.policy_name = "Mixed";
      break;
    }
  }
  out.rounds = rounds_;
  out.forced_collections = forced_collections_;
  out.admission_stalls = admission_stalls_;
  out.forced_admissions = forced_admissions_;
  out.shared_frame_budget = budget_.total_frames();
  out.watermark_frames = budget_.watermark_frames();
  out.peak_occupancy_frames = budget_.peak_occupancy();
  out.squeezed_evictions = arena_->squeezed_evictions();
  out.departures = departures_;
  out.tenant_admission_stalls = tenant_stalls_;
  out.tenant_peak_resident_frames.reserve(runs_.size());
  for (size_t t = 0; t < runs_.size(); ++t) {
    out.tenant_peak_resident_frames.push_back(budget_.peak_resident(t));
  }
  return out;
}

Result<ServiceResult> RunService(ServiceSpec spec) {
  HeapService service(std::move(spec));
  ODBGC_RETURN_IF_ERROR(service.Run());
  return service.Finish();
}

}  // namespace odbgc
