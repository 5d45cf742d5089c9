// Multi-tenant heap service driver (DESIGN.md §16): host N tenants —
// each a full paper-style simulation with its own policy and seed — over
// one shared frame budget with admission control and cross-tenant forced
// collection, then print the per-tenant results and the service-level
// pressure counters.
//
// Examples:
//   ./build/examples/run_service --tenants=8 --threads=4
//   ./build/examples/run_service --tenants=4 --overcommit=0.6
//       --watermark=0.5 --policies=UpdatedPointer,MostGarbage   (one line)
//   ./build/examples/run_service --tenants=2 --watermark=0 --csv
//
// With --watermark=0 admission control is off and every tenant replays
// exactly as a standalone run (the service equivalence contract); with a
// watermark and an overcommitted budget the service stalls tenant batches
// and forces collections to keep shared-pool occupancy bounded.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/selection_policy.h"
#include "service/heap_service.h"
#include "sim/config.h"
#include "sim/report.h"
#include "sim/spec.h"
#include "util/parse_flag.h"
#include "util/table_printer.h"

namespace {

using namespace odbgc;

void Usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --tenants=N           hosted tenants              (default 4)\n"
      "  --threads=N           service worker threads      (default 2)\n"
      "  --policies=A,B,...    cycled across tenants (default\n"
      "                        UpdatedPointer,MostGarbage,WeightedPointer,\n"
      "                        MutatedPartition; any registered name works)\n"
      "  --alloc-mb=N          allocation volume per tenant (default 2)\n"
      "  --first-seed=N        tenant i runs seed N+i      (default 1)\n"
      "  --budget-frames=N     shared frame budget; overrides --overcommit\n"
      "  --overcommit=F        budget = F * sum of tenant buffer caps, F in\n"
      "                        (0, 1] (default 0.75; 1 = no overcommit)\n"
      "  --watermark=F         admission watermark fraction (default 0.5;\n"
      "                        0 disables admission control entirely)\n"
      "  --events-per-batch=N  events per tenant per round (default 256)\n"
      "  --steps-per-round=K   batches per tenant per round (default 1;\n"
      "                        higher K amortizes barrier overhead)\n"
      "  --stagger-arrival=N   tenant i arrives at round (i/8)*N instead of\n"
      "                        all at round 0 (waves of 8)\n"
      "  --depart-after=R      staggered tenants also depart R rounds after\n"
      "                        arriving (0 = run to completion)\n"
      "  --manifest-dir=DIR    write one run manifest per tenant for\n"
      "                        odbgc-report (files <tenant>-<policy>-sN.json)\n"
      "  --csv                 CSV instead of an aligned table\n",
      prog);
}

}  // namespace

int main(int argc, char** argv) {
  int tenants = 4;
  uint32_t threads = 2;
  std::vector<std::string> policies = {"UpdatedPointer", "MostGarbage",
                                       "WeightedPointer", "MutatedPartition"};
  uint32_t alloc_mb = 2;  // 32 bits, so the shift to bytes cannot overflow.
  uint64_t first_seed = 1;
  uint64_t budget_frames = 0;
  double overcommit = 0.75;
  double watermark = 0.5;
  uint64_t events_per_batch = 256;
  uint64_t steps_per_round = 1;
  uint64_t stagger_arrival = 0;
  uint64_t depart_after = 0;
  std::string manifest_dir;
  bool csv = false;
  bool ok = true;  // Cleared by a numeric value that does not parse.

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--policies", &value)) {
      auto parsed = ParsePolicyList(value);
      if (!parsed.ok()) {
        std::fputs(parsed.status().message().c_str(), stderr);
        return 1;
      }
      policies = std::move(parsed).value();
    } else if (
        ParseNumberFlag(argv[i], "--tenants", &tenants, &ok) ||
        ParseNumberFlag(argv[i], "--threads", &threads, &ok) ||
        ParseNumberFlag(argv[i], "--alloc-mb", &alloc_mb, &ok) ||
        ParseNumberFlag(argv[i], "--first-seed", &first_seed, &ok) ||
        ParseNumberFlag(argv[i], "--budget-frames", &budget_frames, &ok) ||
        ParseNumberFlag(argv[i], "--watermark", &watermark, &ok) ||
        ParseNumberFlag(argv[i], "--events-per-batch", &events_per_batch,
                        &ok) ||
        ParseNumberFlag(argv[i], "--steps-per-round", &steps_per_round,
                        &ok) ||
        ParseNumberFlag(argv[i], "--stagger-arrival", &stagger_arrival,
                        &ok) ||
        ParseNumberFlag(argv[i], "--depart-after", &depart_after, &ok)) {
      // Parsed in the condition.
    } else if (ParseNumberFlag(argv[i], "--overcommit", &overcommit, &ok)) {
      if (!(overcommit > 0.0 && overcommit <= 1.0)) {
        std::fprintf(stderr, "--overcommit must be in (0, 1]\n");
        ok = false;
      }
    } else if (ParseFlag(argv[i], "--manifest-dir", &value)) {
      manifest_dir = value;
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else {
      Usage(argv[0]);
      return 1;
    }
  }
  if (!ok) return 1;
  if (tenants <= 0 || threads == 0 || policies.empty() ||
      events_per_batch == 0 || steps_per_round == 0) {
    Usage(argv[0]);
    return 1;
  }

  ServiceSpec spec = ServiceSpec::Hosting({})
                         .WithThreads(threads)
                         .WithWatermark(watermark)
                         .WithEventsPerBatch(events_per_batch)
                         .WithStepsPerRound(steps_per_round)
                         .WithManifestDir(manifest_dir);
  uint64_t cap_sum = 0;
  for (int i = 0; i < tenants; ++i) {
    TenantSpec tenant =
        TenantSpec::Base()
            .Named("tenant" + std::to_string(i))
            .WithPolicy(policies[static_cast<size_t>(i) % policies.size()])
            .WithSeed(first_seed + static_cast<uint64_t>(i))
            .WithTotalAllocationMb(alloc_mb);
    if (stagger_arrival > 0) {
      // Waves of 8: wave w arrives at round w * N, so a large fleet is
      // hosted as a rolling population instead of all at once.
      tenant.arrival_round = (static_cast<uint64_t>(i) / 8) * stagger_arrival;
      if (depart_after > 0) {
        tenant.departure_round = tenant.arrival_round + depart_after;
      }
    }
    cap_sum += tenant.config.heap.buffer_pages;
    spec.tenants.push_back(std::move(tenant));
  }
  if (budget_frames == 0 && overcommit < 1.0) {
    budget_frames = static_cast<uint64_t>(
        static_cast<double>(cap_sum) * overcommit);
  }
  spec.shared_frame_budget = budget_frames;

  std::fprintf(stderr, "hosting %d tenants on %u threads (budget %llu of %llu"
               " frames, watermark %.2f)...\n",
               tenants, threads,
               static_cast<unsigned long long>(
                   budget_frames == 0 ? cap_sum : budget_frames),
               static_cast<unsigned long long>(cap_sum), watermark);

  auto service = RunService(std::move(spec));
  if (!service.ok()) {
    std::fprintf(stderr, "service failed: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  const ServiceResult& result = *service;

  TablePrinter table({"tenant", "policy", "seed", "events", "app_io", "gc_io",
                      "collections", "reclaimed_kb", "max_storage_kb"});
  for (size_t i = 0; i < result.tenants.size(); ++i) {
    const SimulationResult& r = result.tenants[i];
    table.AddRow({result.tenant_names[i], r.policy_name,
                  FormatCount(static_cast<double>(r.seed)),
                  FormatCount(static_cast<double>(r.app_events)),
                  FormatCount(static_cast<double>(r.app_io)),
                  FormatCount(static_cast<double>(r.gc_io)),
                  FormatCount(static_cast<double>(r.collections)),
                  FormatCount(static_cast<double>(
                      r.garbage_reclaimed_bytes / 1024)),
                  FormatCount(static_cast<double>(
                      r.max_storage_bytes / 1024))});
  }
  if (csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }

  std::printf(
      "\naggregate: %llu events, %llu total I/O, %llu collections "
      "(%llu forced by the cross-tenant scheduler)\n",
      static_cast<unsigned long long>(result.aggregate.app_events),
      static_cast<unsigned long long>(result.aggregate.total_io()),
      static_cast<unsigned long long>(result.aggregate.collections),
      static_cast<unsigned long long>(result.forced_collections));
  std::printf(
      "service: %llu rounds, %llu admission stalls, %llu forced admissions\n",
      static_cast<unsigned long long>(result.rounds),
      static_cast<unsigned long long>(result.admission_stalls),
      static_cast<unsigned long long>(result.forced_admissions));
  std::printf(
      "shared pool: budget %llu frames, watermark %llu, peak occupancy "
      "%llu\n",
      static_cast<unsigned long long>(result.shared_frame_budget),
      static_cast<unsigned long long>(result.watermark_frames),
      static_cast<unsigned long long>(result.peak_occupancy_frames));
  std::printf("arena: %llu squeezed evictions, %llu departures\n",
              static_cast<unsigned long long>(result.squeezed_evictions),
              static_cast<unsigned long long>(result.departures));
  return 0;
}
