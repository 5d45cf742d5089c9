#ifndef ODBGC_SIM_SPEC_H_
#define ODBGC_SIM_SPEC_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "observe/observer.h"
#include "sim/config.h"

namespace odbgc {

/// The unified run-construction surface (DESIGN.md §16).
///
/// A simulation run used to be assembled by poking three nested structs —
/// HeapOptions inside SimulationConfig, plus ExperimentSpec on top for
/// grids — with the common knobs scattered across all of them. TenantSpec
/// collapses that into one fluent rvalue builder (the ExperimentSpec
/// idiom): every method adjusts the wrapped SimulationConfig and returns
/// the builder by move, so a complete run spec reads as one expression:
///
///   SimulationConfig config = TenantSpec::Base()
///                                 .WithPolicy("UpdatedPointer")
///                                 .WithSeed(7)
///                                 .WithTotalAllocationMb(8)
///                                 .WithBufferPages(48)
///                                 .Build();
///
/// The underlying structs remain public for back-compat — everything that
/// constructs them directly still compiles — but direct-struct assembly is
/// the deprecated path (DESIGN.md §16); new code should come through here.
///
/// A TenantSpec is also the unit a multi-tenant HeapService hosts: the
/// optional `name` becomes the tenant's identity in service telemetry and
/// manifest file names. ServiceSpec below aggregates N of them plus the
/// service-level knobs (threads, shared frame budget, admission
/// watermark).
struct TenantSpec {
  SimulationConfig config;
  /// Tenant identity for service telemetry/manifests. Empty means
  /// "tenant<index>" at the position the service assigns.
  std::string name;
  /// First service round this tenant exists (0 = present from the start).
  /// Until then it is dormant: never admitted or stepped, and it holds no
  /// slice of the shared budget.
  uint64_t arrival_round = 0;
  /// Round at whose barrier the tenant is retired mid-run (0 = runs to
  /// completion). A departing tenant finalizes whatever it has simulated
  /// so far and releases its shared-pool frames immediately.
  uint64_t departure_round = 0;

  // ---- Builder -----------------------------------------------------------
  static TenantSpec Base(SimulationConfig base = PaperBaseConfig()) {
    TenantSpec spec;
    spec.config = std::move(base);
    return spec;
  }

  TenantSpec&& Named(std::string tenant_name) && {
    name = std::move(tenant_name);
    return std::move(*this);
  }
  /// Mid-run fleet membership (service only; see the fields above).
  TenantSpec&& ArrivingAtRound(uint64_t round) && {
    arrival_round = round;
    return std::move(*this);
  }
  TenantSpec&& DepartingAtRound(uint64_t round) && {
    departure_round = round;
    return std::move(*this);
  }

  // -- Heap knobs ----------------------------------------------------------
  /// Selection policy by registry name (see RegisterPolicy).
  TenantSpec&& WithPolicy(std::string policy_name) && {
    config.heap.policy_name = std::move(policy_name);
    return std::move(*this);
  }
  TenantSpec&& WithBufferPages(size_t pages) && {
    config.heap.buffer_pages = pages;
    return std::move(*this);
  }
  TenantSpec&& WithPartitionPages(size_t pages) && {
    config.heap.store.pages_per_partition = pages;
    return std::move(*this);
  }
  /// Overwrite-count collection trigger; 0 disables automatic collection.
  TenantSpec&& WithTrigger(uint32_t overwrites) && {
    config.heap.overwrite_trigger = overwrites;
    return std::move(*this);
  }
  /// Storage backend by registry spec ("disk", "ssd", "file:<path>").
  TenantSpec&& WithDevice(std::string device_spec) && {
    config.heap.device_spec = std::move(device_spec);
    return std::move(*this);
  }
  /// Run-telemetry sink (non-owning; must outlive the run).
  TenantSpec&& WithObserver(SimObserver* observer) && {
    config.heap.observer = observer;
    return std::move(*this);
  }

  // -- Workload knobs ------------------------------------------------------
  /// Seeds the workload generator and policy randomness.
  TenantSpec&& WithSeed(uint64_t seed) && {
    config.seed = seed;
    return std::move(*this);
  }
  /// Scales the workload to allocate this many bytes in total (the live
  /// target scales proportionally, as in the paper's Figure 6 sweep).
  TenantSpec&& WithTotalAllocation(uint64_t bytes) && {
    config.workload = config.workload.WithTotalAllocation(bytes);
    return std::move(*this);
  }
  TenantSpec&& WithTotalAllocationMb(uint64_t mb) && {
    return std::move(*this).WithTotalAllocation(mb << 20);
  }
  /// Database connectivity (pointers per object), the Table 5 sweep.
  TenantSpec&& WithConnectivity(double connectivity) && {
    config.workload = config.workload.WithConnectivity(connectivity);
    return std::move(*this);
  }
  TenantSpec&& WithWarmStart(bool enabled = true) && {
    config.warm_start = enabled;
    return std::move(*this);
  }
  /// Time-series sampling cadence (0 disables sampling).
  TenantSpec&& WithSnapshotInterval(uint64_t events) && {
    config.snapshot_interval = events;
    return std::move(*this);
  }
  /// Concurrent mutator mode (DESIGN.md §14).
  TenantSpec&& WithMutatorThreads(uint32_t mutators, uint32_t shards = 0) && {
    config.mutator_threads = mutators;
    config.trace_shards = shards;
    return std::move(*this);
  }

  /// Finishes the builder chain: the assembled run configuration.
  SimulationConfig Build() && { return std::move(config); }
};

/// A multi-tenant heap service run (service/heap_service.h): N tenants
/// over one frame arena sized to the shared budget and one worker pool,
/// with admission control and cross-tenant collection scheduling at the
/// round barriers.
struct ServiceSpec {
  std::vector<TenantSpec> tenants;
  /// Worker threads applying tenant batches; 1 = fully serial (and
  /// byte-stable, including observer event order).
  uint32_t threads = 1;
  /// Shared frame budget across every tenant's buffer pool, in frames.
  /// 0 (the default) means the sum of the tenant caps — no overcommit, no
  /// pressure. Benches set it *below* the sum to create pressure.
  uint64_t shared_frame_budget = 0;
  /// Admission watermark as a fraction of the shared budget in (0, 1]:
  /// when projected occupancy crosses it, tenant batches stall and the
  /// cross-tenant scheduler forces collections until occupancy retreats.
  /// 0 (the default) disables admission control and the scheduler — every
  /// tenant then replays exactly as a standalone Simulator run would,
  /// which is the service equivalence contract.
  double admission_watermark = 0.0;
  /// When non-empty, one canonical run manifest per tenant is written
  /// here: <dir>/<tenant>-<policy>-s<seed>.json.
  std::string manifest_dir;
  /// Service-wide telemetry sink (non-owning). Tenants publish through
  /// per-tenant serializing wrappers tagged with tenant index + 1, so one
  /// sink observes every tenant attributably.
  SimObserver* observer = nullptr;
  /// Events each admitted tenant applies per round. The round structure
  /// is part of the determinism contract (results are a pure function of
  /// the spec including this), so it is a spec field, not a tuning
  /// global.
  uint64_t events_per_batch = 256;
  /// Batches each admitted tenant applies per round (K-step batching).
  /// One worker wake services K * events_per_batch events before the next
  /// barrier, amortizing the barrier and the pool's wake/park handoffs
  /// across K batches. Like events_per_batch this shapes the admission /
  /// forced-collection schedule, so it is part of the spec.
  uint64_t steps_per_round = 1;

  // ---- Builder -----------------------------------------------------------
  static ServiceSpec Hosting(std::vector<TenantSpec> specs) {
    ServiceSpec spec;
    spec.tenants = std::move(specs);
    return spec;
  }
  ServiceSpec&& AddTenant(TenantSpec tenant) && {
    tenants.push_back(std::move(tenant));
    return std::move(*this);
  }
  ServiceSpec&& WithThreads(uint32_t count) && {
    threads = count;
    return std::move(*this);
  }
  ServiceSpec&& WithFrameBudget(uint64_t frames) && {
    shared_frame_budget = frames;
    return std::move(*this);
  }
  ServiceSpec&& WithWatermark(double fraction) && {
    admission_watermark = fraction;
    return std::move(*this);
  }
  ServiceSpec&& WithManifestDir(std::string dir) && {
    manifest_dir = std::move(dir);
    return std::move(*this);
  }
  ServiceSpec&& WithObserver(SimObserver* sink) && {
    observer = sink;
    return std::move(*this);
  }
  ServiceSpec&& WithEventsPerBatch(uint64_t events) && {
    events_per_batch = events;
    return std::move(*this);
  }
  ServiceSpec&& WithStepsPerRound(uint64_t steps) && {
    steps_per_round = steps;
    return std::move(*this);
  }
};

}  // namespace odbgc

#endif  // ODBGC_SIM_SPEC_H_
