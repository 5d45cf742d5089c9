#ifndef ODBGC_SERVICE_HEAP_SERVICE_H_
#define ODBGC_SERVICE_HEAP_SERVICE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "service/pool_budget.h"
#include "sim/metrics.h"
#include "sim/spec.h"
#include "util/status.h"

namespace odbgc {

class CollectedHeap;
class SharedFrameArena;

/// Everything a service run measures: the per-tenant SimulationResults
/// (the same records a standalone Simulator produces — tenant i of an
/// unpressured run is bitwise equal to a solo run of its spec), their
/// order-independent aggregate, and the service-level counters the
/// admission controller and cross-tenant scheduler produce.
struct ServiceResult {
  /// Per-tenant results in tenant order, with the names they ran under.
  std::vector<SimulationResult> tenants;
  std::vector<std::string> tenant_names;
  /// Sum over tenants (ConcurrentSimulator::AggregateResults). When the
  /// tenants ran different policies the aggregate's policy identity is
  /// "Mixed" — per-policy numbers live in `tenants`.
  SimulationResult aggregate;

  /// Round barriers the service ran (one batch wave per round).
  uint64_t rounds = 0;
  /// Collections the cross-tenant scheduler forced at barriers (these are
  /// in addition to each tenant's own trigger-driven collections, and are
  /// included in the per-tenant collection counts).
  uint64_t forced_collections = 0;
  /// Tenant-rounds denied admission by the watermark.
  uint64_t admission_stalls = 0;
  /// Rounds where no tenant fit under the watermark and one was admitted
  /// anyway (the progress guarantee). Zero means the occupancy bound
  /// `peak <= watermark + max tenant allowance` held unconditionally.
  uint64_t forced_admissions = 0;

  /// Shared-pool accounting (frames): the budget, the armed watermark (0
  /// when admission control was off), and the highest post-round
  /// occupancy any barrier observed.
  uint64_t shared_frame_budget = 0;
  uint64_t watermark_frames = 0;
  uint64_t peak_occupancy_frames = 0;

  /// Under-quota evictions tenants performed because the shared arena was
  /// physically exhausted (0 whenever the budget covers the admission
  /// bound — the invariance-gated regime).
  uint64_t squeezed_evictions = 0;
  /// Tenants retired mid-run by their departure_round.
  uint64_t departures = 0;
  /// Per-tenant occupancy story, indexed like `tenants`: the highest
  /// barrier residency each tenant reached, and how many rounds each was
  /// individually stalled by the watermark. These also land in the
  /// optional `service` section of each tenant manifest.
  std::vector<uint64_t> tenant_peak_resident_frames;
  std::vector<uint64_t> tenant_admission_stalls;
};

/// A multi-tenant heap service: N TenantSpecs — each an independent
/// CollectedHeap + Simulator replaying its own deterministic workload
/// stream — hosted over one shared frame budget, one worker pool, and one
/// physically shared frame arena sized to that budget: a single frame
/// array that every tenant pool borrows frames from, with each tenant's
/// buffer_pages as its logical quota and its page residency kept in its
/// own pool (DESIGN.md §17).
/// Tenants may arrive (TenantSpec::arrival_round) and depart
/// (departure_round) while the service runs, so a fleet can be grown to
/// thousands of tenants without hosting them all simultaneously.
///
/// Execution is round-based. Each round, every *admitted* tenant applies
/// up to `steps_per_round` batches of `events_per_batch` events of its
/// stream (in parallel across the worker pool; a tenant's own stream
/// always applies in order). At the barrier after each round the service,
/// single-threaded:
///
///   1. refreshes the SharedPoolBudget from every tenant pool's residency
///      and records the occupancy peak;
///   2. while occupancy sits at/above the watermark, forces collections
///      chosen by the cross-tenant scheduler: over all (tenant,
///      partition) candidates it ranks
///          rank(t, p) = NormalizedScore_t(p) * TenantPressure(t)
///      where NormalizedScore is the tenant policy's Score(p) divided by
///      the tenant's best score (1 when all scores are 0, as for Random),
///      and TenantPressure is resident/cap — the paper's per-heap victim
///      ordering, scaled by who is actually holding the shared budget.
///      Ties break to the lowest (tenant, partition). Collection sheds
///      residency through the collector's DiscardExtent of the victim;
///   3. computes next-round admissions: tenants are admitted in id order
///      while projected occupancy (current + each admitted tenant's
///      allowance, i.e. cap - resident) stays below the watermark. If
///      nobody fits, the first unfinished tenant is admitted anyway so
///      the service always finishes (counted as a forced admission).
///
/// Determinism: tenants are the determinism units — each result is a pure
/// function of its (config, seed) plus the admission/collection schedule,
/// and the schedule itself is computed at barriers from deterministic
/// state only. Hence results are thread-count invariant, and a
/// single-thread run is byte-stable end to end (including observer event
/// order). With the watermark unset (admission control off) no forced
/// collections or stalls occur and every tenant's result is bitwise
/// identical to a standalone Simulator run of its config — the service
/// equivalence contract (tests/service/service_equivalence_test.cc).
///
/// Threading: tenant heaps stay in plain serial mode. Each round is one
/// ForkJoinPool batch over the runnable tenants, so one executor applies
/// one tenant's round, and the batch's fork and join edges order each
/// heap's cross-round (and barrier) accesses. The BufferPool single-owner
/// check holds: ownership hands off only through those edges. The shared
/// arena's frame allocator is the only structure several tenants touch at
/// once, and it carries its own lock. Rounds with at most one runnable
/// tenant run inline on the service thread — a small fleet never pays
/// wake/park handoffs for work one thread does anyway.
class HeapService {
 public:
  explicit HeapService(ServiceSpec spec);
  ~HeapService();

  HeapService(const HeapService&) = delete;
  HeapService& operator=(const HeapService&) = delete;

  /// Runs every tenant to completion. InvalidArgument for a mis-specified
  /// service (see Validate in the .cc); otherwise the first tenant error
  /// in tenant order, or Ok. Call once.
  Status Run();

  /// Collects the results. Call once, after a successful Run().
  ServiceResult Finish();

  // -- Introspection (valid after Run) --------------------------------------
  const SharedPoolBudget& budget() const { return budget_; }
  size_t tenant_count() const { return spec_.tenants.size(); }
  uint64_t rounds() const { return rounds_; }
  uint64_t forced_collections() const { return forced_collections_; }
  /// Tenant `tenant`'s heap, or null before its first step. An observer
  /// may read it while an event of that tenant is being delivered.
  const CollectedHeap* tenant_heap(size_t tenant) const;

 private:
  struct TenantRun;

  Status Validate() const;
  /// Serial per-tenant setup: resolved name, rewritten device spec,
  /// observer wrapper, arena binding.
  Status PrepareTenants();
  /// True once the service's round clock has reached the tenant's
  /// arrival_round (always true for arrival_round 0).
  bool Arrived(size_t tenant) const;
  /// Applies one batch of tenant `run`'s stream (refilling its buffer
  /// from the generator as needed); finalizes the tenant when the stream
  /// is exhausted. Runs on a worker (or inline when threads == 1).
  void StepTenant(TenantRun* run);
  /// One round's worth of work for a tenant: steps_per_round batches.
  void RunTenantRound(TenantRun* run);
  /// Barrier step 0: retires tenants whose departure_round has come
  /// (finalize, count, release shared frames).
  void RetireDepartures();
  /// Barrier step 1: budget refresh from pool residency.
  void RefreshBudget();
  /// Barrier step 2: the cross-tenant forced-collection loop.
  void CollectUnderPressure();
  /// Barrier step 3: next-round admission flags.
  void ComputeAdmissions(std::vector<char>* admitted);
  /// Writes one manifest per tenant into spec_.manifest_dir.
  Status WriteManifests() const;

  ServiceSpec spec_;
  // The physically shared frame arena. Declared before runs_: tenant
  // pools hold non-owning pointers into it, so it must outlive them.
  std::unique_ptr<SharedFrameArena> arena_;
  // Serializes tenant observer wrappers into spec_.observer (or a
  // tenant's own sink) across workers.
  std::mutex observer_mutex_;
  std::vector<std::unique_ptr<TenantRun>> runs_;
  SharedPoolBudget budget_;
  uint64_t rounds_ = 0;
  uint64_t forced_collections_ = 0;
  uint64_t admission_stalls_ = 0;
  uint64_t forced_admissions_ = 0;
  uint64_t departures_ = 0;
  std::vector<uint64_t> tenant_stalls_;
  bool ran_ = false;
};

/// Convenience: constructs, runs, and finishes a service in one call.
Result<ServiceResult> RunService(ServiceSpec spec);

}  // namespace odbgc

#endif  // ODBGC_SERVICE_HEAP_SERVICE_H_
