// Multi-tenant heap service probes (DESIGN.md §16-17), three experiments
// in one binary:
//
// 1. Fleet scaling: fleets of 4/8/16 tenants (policies cycled across the
//    registry, one seed per tenant) hosted unpressured at 1, 2 and 4
//    service threads over the shared arena, with K-step round batching
//    (steps_per_round = 8) amortizing barrier and wake/park overhead.
//    Tenants are the determinism units, so every row of a fleet must
//    produce the identical aggregate regardless of thread count (checked
//    here — a scaling probe that changed the answer would be worthless).
//    Rounds with at most one runnable tenant run inline on the service
//    thread instead of paying worker wake/park handoffs, so the 4-tenant
//    rows must not lose to serial.
//    The headline big-fleet speedup is the measured 4-thread wall against
//    the 1-thread wall; a critical-path model of it is kept beside it as
//    big_fleet_speedup_modeled, never as the headline.
//
// 2. Pressure saturation: a fixed 8-tenant fleet with the admission
//    watermark armed at 0.5, swept across shared budgets from the full
//    sum of tenant caps (no overcommit) down to half. Reported per row:
//    admission stalls, collections forced by the cross-tenant scheduler,
//    and peak post-round occupancy. The probe checks the admission bound
//    — peak <= watermark + the largest single-tenant allowance — on every
//    row where no forced admission fired, and aborts on a violation.
//
// 3. Kilofleet: a 1024-tenant fleet (64 under ODBGC_FAST) with staggered
//    arrivals and early departures, hosted over a shared arena holding a
//    quarter of the fleet's summed quotas. The row proves a thousand
//    tenants complete under one bounded physical frame budget (peak
//    occupancy can never exceed the arena — checked) and prices fleet
//    turnover.
//
// ODBGC_FAST=1 shrinks the fleets (2/4 tenants, skips the 16-tenant row)
// for smoke runs.
//
// Usage: mt_tenants [output.json] [--check baseline.json]
//
// With --check, exits 1 if a gated probe's events/sec falls below 80% of
// the value recorded in `baseline.json` (bench/service_baseline.json in
// CI). The committed baseline holds deliberately conservative floors so
// routine CI-hardware variance never trips the gate.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "service/heap_service.h"
#include "sim/config.h"
#include "sim/spec.h"

namespace odbgc {
namespace {

using Clock = std::chrono::steady_clock;

// Small per-tenant workloads: the probe measures the service's
// scheduling, admission and forced-collection machinery, not per-tenant
// collector throughput (the paper tables cover that).
SimulationConfig TenantConfig(uint64_t seed, const std::string& policy) {
  SimulationConfig c;
  c.heap.store.page_size = 1024;
  c.heap.store.pages_per_partition = 16;
  c.heap.buffer_pages = 16;
  c.heap.overwrite_trigger = 25;
  c.heap.policy_name = policy;
  c.workload.target_live_bytes = 96ull << 10;
  c.workload.total_alloc_bytes = bench::FastMode() ? 240ull << 10
                                                   : 960ull << 10;
  c.workload.tree_nodes_min = 50;
  c.workload.tree_nodes_max = 150;
  c.workload.large_object_size = 4096;
  c.seed = seed;
  return c;
}

// UpdatedPointer fills two of the five slots so the cycle keeps the length,
// and every fleet row the trajectory, recorded in BENCH_service.json.
const std::vector<std::string>& PolicyCycle() {
  static const std::vector<std::string> kCycle = {
      "UpdatedPointer", "MostGarbage", "WeightedPointer", "MutatedPartition",
      "UpdatedPointer"};
  return kCycle;
}

ServiceSpec FleetSpec(uint32_t tenants, uint32_t threads,
                      double budget_fraction, double watermark) {
  ServiceSpec spec = ServiceSpec::Hosting({}).WithThreads(threads);
  uint64_t cap_sum = 0;
  for (uint32_t i = 0; i < tenants; ++i) {
    TenantSpec tenant =
        TenantSpec::Base(
            TenantConfig(100 + i, PolicyCycle()[i % PolicyCycle().size()]))
            .Named(std::string("t").append(std::to_string(i)));
    cap_sum += tenant.config.heap.buffer_pages;
    spec.tenants.push_back(std::move(tenant));
  }
  if (budget_fraction > 0 && budget_fraction < 1.0) {
    spec.shared_frame_budget = static_cast<uint64_t>(
        static_cast<double>(cap_sum) * budget_fraction);
  }
  spec.admission_watermark = watermark;
  return spec;
}

bool SameAggregate(const SimulationResult& a, const SimulationResult& b) {
  return a.app_events == b.app_events && a.app_io == b.app_io &&
         a.gc_io == b.gc_io && a.collections == b.collections &&
         a.garbage_reclaimed_bytes == b.garbage_reclaimed_bytes &&
         a.bytes_allocated == b.bytes_allocated &&
         a.max_storage_bytes == b.max_storage_bytes;
}

struct Row {
  uint32_t tenants = 0;
  uint32_t threads = 0;
  double wall_seconds = 0;
  double events_per_sec = 0;
  ServiceResult result;
};

Row RunOnce(ServiceSpec spec) {
  Row row;
  row.tenants = static_cast<uint32_t>(spec.tenants.size());
  row.threads = spec.threads;
  const auto start = Clock::now();
  auto service = RunService(std::move(spec));
  row.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (!service.ok()) bench::Fail(service.status(), "mt_tenants");
  row.result = std::move(*service);
  row.events_per_sec =
      row.wall_seconds > 0
          ? static_cast<double>(row.result.aggregate.app_events) /
                row.wall_seconds
          : 0;
  return row;
}

// Every tenant cap is 16 frames here, so the admission bound's slack term
// (the largest single-tenant allowance) is at most one tenant cap.
constexpr uint64_t kTenantCap = 16;

bool BoundHolds(const ServiceResult& r) {
  if (r.watermark_frames == 0) return true;  // Admission off: no bound.
  if (r.forced_admissions > 0) return true;  // Bound is conditional.
  return r.peak_occupancy_frames <= r.watermark_frames + kTenantCap;
}

// The kilofleet's tenants are deliberately tiny — the row measures fleet
// turnover and arena behaviour at scale, not per-tenant throughput.
ServiceSpec KilofleetSpec(uint32_t tenants, uint32_t threads) {
  ServiceSpec spec = ServiceSpec::Hosting({}).WithThreads(threads);
  uint64_t cap_sum = 0;
  for (uint32_t i = 0; i < tenants; ++i) {
    SimulationConfig c =
        TenantConfig(500 + i, PolicyCycle()[i % PolicyCycle().size()]);
    c.workload.target_live_bytes = 24ull << 10;
    c.workload.total_alloc_bytes = 60ull << 10;
    TenantSpec tenant = TenantSpec::Base(c).Named(
        std::string("k").append(std::to_string(i)));
    // Waves of 32 tenants arrive every 8 rounds; every fourth tenant
    // departs two rounds after it arrived — early enough that even an
    // unpressured tiny tenant is still mid-stream, so retirement is
    // exercised for real rather than racing natural completion. The
    // fleet is continuously churning rather than all-present.
    tenant.arrival_round = (i / 32) * 8;
    if (i % 4 == 3) tenant.departure_round = tenant.arrival_round + 2;
    cap_sum += tenant.config.heap.buffer_pages;
    spec.tenants.push_back(std::move(tenant));
  }
  // A quarter of the summed quotas: real physical overcommit, managed by
  // the watermark (stalls) and, past that, squeezed evictions.
  return std::move(spec)
      .WithFrameBudget(cap_sum / 4)
      .WithWatermark(0.75)
      .WithStepsPerRound(8);
}

/// Pulls `"<probe>_events_per_sec": <number>` out of a baseline JSON file
/// by plain string scanning (no JSON reader needed; the file is
/// machine-written with known key names).
double BaselineEventsPerSec(const std::string& text, const std::string& probe) {
  const std::string key = "\"" + probe + "_events_per_sec\":";
  const size_t at = text.find(key);
  if (at == std::string::npos) return -1;
  return std::strtod(text.c_str() + at + key.size(), nullptr);
}

}  // namespace
}  // namespace odbgc

int main(int argc, char** argv) {
  using namespace odbgc;

  const char* json_path = "BENCH_service.json";
  const char* baseline_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else {
      json_path = argv[i];
    }
  }

  bench::PrintHeader("Multi-tenant heap service (shared arena, admission, "
                     "cross-tenant GC)",
                     "service engineering (no paper table)");

  const std::vector<uint32_t> fleets = bench::FastMode()
                                           ? std::vector<uint32_t>{2, 4}
                                           : std::vector<uint32_t>{4, 8, 16};
  const std::vector<uint32_t> thread_counts = {1, 2, 4};
  constexpr uint64_t kStepsPerRound = 8;

  // -- 1. Fleet scaling (shared arena, invariance-checked) ------------------
  std::printf("\nfleet scaling (shared arena, steps_per_round=%llu, "
              "watermark off; aggregate must be thread-count invariant):\n",
              static_cast<unsigned long long>(kStepsPerRound));
  std::vector<Row> scaling;
  double small_fleet_speedup = 0;   // Best multi-thread vs serial, smallest
                                    // "real" fleet (the old regression).
  double big_fleet_speedup = 0;     // 4 threads vs 1, largest fleet.
  double big_fleet_events_per_sec = 0;
  std::vector<uint64_t> big_fleet_tenant_events;  // 1-thread run, for the
                                                  // modeled speedup.
  for (uint32_t tenants : fleets) {
    // Copies, not pointers into `scaling` — push_back reallocation would
    // dangle them.
    double baseline_events_per_sec = 0;
    SimulationResult baseline_aggregate;
    for (uint32_t threads : thread_counts) {
      Row row = RunOnce(FleetSpec(tenants, threads, 0.0, 0.0)
                            .WithStepsPerRound(kStepsPerRound));
      const double speedup = baseline_events_per_sec > 0
                                 ? row.events_per_sec / baseline_events_per_sec
                                 : 1.0;
      std::printf("  tenants=%-3u threads=%u  events=%-9llu wall=%7.3fs"
                  "  events/sec=%11.0f  speedup=%.2fx\n",
                  tenants, threads,
                  static_cast<unsigned long long>(
                      row.result.aggregate.app_events),
                  row.wall_seconds, row.events_per_sec, speedup);
      if (threads != 1 &&
          !SameAggregate(baseline_aggregate, row.result.aggregate)) {
        std::fprintf(stderr,
                     "aggregate diverged between 1 and %u threads at "
                     "%u tenants — the service scheduler is broken\n",
                     threads, tenants);
        return 1;
      }
      if (threads > 1 && tenants == fleets.front()) {
        small_fleet_speedup = std::max(small_fleet_speedup, speedup);
      }
      if (tenants == fleets.back() && threads == thread_counts.back()) {
        big_fleet_speedup = speedup;
        big_fleet_events_per_sec = row.events_per_sec;
      }
      if (threads == 1) {
        baseline_events_per_sec = row.events_per_sec;
        baseline_aggregate = row.result.aggregate;
        if (tenants == fleets.back()) {
          big_fleet_tenant_events.clear();
          for (const SimulationResult& t : row.result.tenants) {
            big_fleet_tenant_events.push_back(t.app_events);
          }
        }
      }
      scaling.push_back(std::move(row));
    }
  }
  std::printf("  small fleet (%u tenants) best multi-thread speedup: %.2fx"
              " (inline rounds + batching — must not lose to serial)\n",
              fleets.front(), small_fleet_speedup);

  // Secondary, machine-independent critical-path model: each round is a
  // barrier over the runnable tenants, so the best a T-thread round can
  // do is the largest bin of an LPT packing of the per-tenant work into T
  // bins. Per-tenant app_events from the 1-thread run stand in for work;
  // for the fleet's near-equal tenants the model collapses to tenants /
  // ceil(tenants / threads). It bounds the measured figure from above.
  const unsigned cores = std::thread::hardware_concurrency();
  double big_fleet_speedup_modeled = 0;
  {
    std::vector<uint64_t> sorted = big_fleet_tenant_events;
    std::sort(sorted.rbegin(), sorted.rend());
    std::vector<uint64_t> bins(thread_counts.back(), 0);
    uint64_t total = 0;
    for (uint64_t w : sorted) {
      *std::min_element(bins.begin(), bins.end()) += w;
      total += w;
    }
    const uint64_t makespan = *std::max_element(bins.begin(), bins.end());
    big_fleet_speedup_modeled =
        makespan > 0 ? static_cast<double>(total) / makespan : 0;
  }
  std::printf("  big fleet (%u tenants, %u threads, %u hardware threads) "
              "speedup: measured %.2fx (critical-path model %.2fx)\n",
              fleets.back(), thread_counts.back(), cores, big_fleet_speedup,
              big_fleet_speedup_modeled);

  // -- 2. Pressure saturation (admission-bound probe) -----------------------
  const uint32_t pressure_fleet = bench::FastMode() ? 4 : 8;
  const double kWatermark = 0.5;
  const std::vector<double> budget_fractions = {1.0, 0.75, 0.5};

  std::printf("\npressure saturation (%u tenants, 2 threads, watermark "
              "%.2f):\n", pressure_fleet, kWatermark);
  std::vector<Row> pressure;
  for (double fraction : budget_fractions) {
    Row row = RunOnce(FleetSpec(pressure_fleet, 2, fraction, kWatermark));
    const ServiceResult& r = row.result;
    std::printf("  budget=%.0f%%  frames=%-4llu peak=%-4llu stalls=%-6llu"
                " forced_gc=%-5llu forced_admit=%llu  bound=%s\n",
                fraction * 100,
                static_cast<unsigned long long>(r.shared_frame_budget),
                static_cast<unsigned long long>(r.peak_occupancy_frames),
                static_cast<unsigned long long>(r.admission_stalls),
                static_cast<unsigned long long>(r.forced_collections),
                static_cast<unsigned long long>(r.forced_admissions),
                BoundHolds(r) ? "ok" : "VIOLATED");
    if (!BoundHolds(r)) {
      std::fprintf(stderr,
                   "admission bound violated: peak %llu > watermark %llu + "
                   "cap %llu with no forced admission\n",
                   static_cast<unsigned long long>(r.peak_occupancy_frames),
                   static_cast<unsigned long long>(r.watermark_frames),
                   static_cast<unsigned long long>(kTenantCap));
      return 1;
    }
    pressure.push_back(std::move(row));
  }

  // -- 3. Kilofleet (arrival/departure churn at scale) ----------------------
  const uint32_t kilo_tenants = bench::FastMode() ? 64 : 1024;
  std::printf("\nkilofleet (%u tenants, 4 threads, staggered arrivals, 1-in-4"
              " departs, budget = quotas/4):\n", kilo_tenants);
  const Row kilo = RunOnce(KilofleetSpec(kilo_tenants, 4));
  {
    const ServiceResult& r = kilo.result;
    std::printf("  events=%-10llu wall=%7.3fs events/sec=%11.0f\n",
                static_cast<unsigned long long>(r.aggregate.app_events),
                kilo.wall_seconds, kilo.events_per_sec);
    std::printf("  rounds=%-6llu departures=%-5llu stalls=%-8llu "
                "squeezed=%-6llu peak=%llu/%llu frames\n",
                static_cast<unsigned long long>(r.rounds),
                static_cast<unsigned long long>(r.departures),
                static_cast<unsigned long long>(r.admission_stalls),
                static_cast<unsigned long long>(r.squeezed_evictions),
                static_cast<unsigned long long>(r.peak_occupancy_frames),
                static_cast<unsigned long long>(r.shared_frame_budget));
    // The arena bounds physical occupancy by construction; a peak above
    // the budget would mean the ledger and the frames disagree.
    if (r.peak_occupancy_frames > r.shared_frame_budget) {
      std::fprintf(stderr, "kilofleet peak %llu exceeded the %llu-frame "
                   "arena — occupancy accounting is broken\n",
                   static_cast<unsigned long long>(r.peak_occupancy_frames),
                   static_cast<unsigned long long>(r.shared_frame_budget));
      return 1;
    }
    // Every 4th tenant carries a departure round, but a tenant that
    // drains its allocation stream first finishes naturally instead of
    // being force-retired — so the count is bounded above by the
    // schedule, and must be nonzero to prove retirement actually ran.
    const uint64_t scheduled_departures = kilo_tenants / 4;
    if (r.departures == 0 || r.departures > scheduled_departures) {
      std::fprintf(stderr, "kilofleet retired %llu tenants, expected "
                   "1..%llu\n",
                   static_cast<unsigned long long>(r.departures),
                   static_cast<unsigned long long>(scheduled_departures));
      return 1;
    }
  }

  // -- JSON -----------------------------------------------------------------
  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"mt_tenants\",\n";
  json << "  \"fast_mode\": " << (bench::FastMode() ? "true" : "false")
       << ",\n  \"scaling\": [\n";
  for (size_t i = 0; i < scaling.size(); ++i) {
    const Row& r = scaling[i];
    json << "    {\"tenants\": " << r.tenants
         << ", \"threads\": " << r.threads
         << ", \"events\": " << r.result.aggregate.app_events
         << ", \"wall_seconds\": " << r.wall_seconds
         << ", \"events_per_sec\": " << r.events_per_sec
         << ", \"rounds\": " << r.result.rounds << "}"
         << (i + 1 < scaling.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"aggregate_invariant\": true,\n";
  json << "  \"small_fleet_tenants\": " << fleets.front()
       << ",\n  \"small_fleet_speedup\": " << small_fleet_speedup
       << ",\n  \"big_fleet_tenants\": " << fleets.back()
       << ",\n  \"hardware_threads\": " << cores
       << ",\n  \"speedup_basis\": \"measured\""
       << ",\n  \"big_fleet_speedup\": " << big_fleet_speedup
       << ",\n  \"big_fleet_speedup_modeled\": " << big_fleet_speedup_modeled
       << ",\n";
  json << "  \"pressure\": {\n    \"tenants\": " << pressure_fleet
       << ",\n    \"watermark\": " << kWatermark << ",\n    \"rows\": [\n";
  for (size_t i = 0; i < pressure.size(); ++i) {
    const ServiceResult& r = pressure[i].result;
    json << "      {\"budget_fraction\": " << budget_fractions[i]
         << ", \"budget_frames\": " << r.shared_frame_budget
         << ", \"watermark_frames\": " << r.watermark_frames
         << ", \"peak_occupancy_frames\": " << r.peak_occupancy_frames
         << ", \"admission_stalls\": " << r.admission_stalls
         << ", \"forced_collections\": " << r.forced_collections
         << ", \"forced_admissions\": " << r.forced_admissions
         << ", \"bound_held\": " << (BoundHolds(r) ? "true" : "false") << "}"
         << (i + 1 < pressure.size() ? "," : "") << "\n";
  }
  json << "    ]\n  },\n  \"kilofleet\": {\n";
  json << "    \"tenants\": " << kilo_tenants
       << ",\n    \"budget_frames\": " << kilo.result.shared_frame_budget
       << ",\n    \"peak_occupancy_frames\": "
       << kilo.result.peak_occupancy_frames
       << ",\n    \"departures\": " << kilo.result.departures
       << ",\n    \"admission_stalls\": " << kilo.result.admission_stalls
       << ",\n    \"squeezed_evictions\": " << kilo.result.squeezed_evictions
       << ",\n    \"rounds\": " << kilo.result.rounds
       << ",\n    \"wall_seconds\": " << kilo.wall_seconds << "\n  },\n";
  // Flat gate keys, hotpath-style, for `--check`.
  json << "  \"fleet_events_per_sec\": " << big_fleet_events_per_sec << ",\n";
  json << "  \"kilofleet_events_per_sec\": " << kilo.events_per_sec << "\n";
  json << "}\n";
  json.close();
  std::printf("\nWrote %s\n", json_path);
  if (!json.good()) return 1;

  // -- Regression gate ------------------------------------------------------
  if (baseline_path != nullptr) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "cannot read baseline %s\n", baseline_path);
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    struct Gate {
      const char* probe;
      double events_per_sec;
    };
    const Gate gates[] = {
        {"fleet", big_fleet_events_per_sec},
        {"kilofleet", kilo.events_per_sec},
    };
    bool ok = true;
    for (const Gate& gate : gates) {
      const double baseline = BaselineEventsPerSec(text, gate.probe);
      if (baseline <= 0) {
        std::fprintf(stderr, "baseline %s missing key %s_events_per_sec\n",
                     baseline_path, gate.probe);
        return 1;
      }
      const double floor = baseline * 0.8;  // >20% regression fails.
      const bool pass = gate.events_per_sec >= floor;
      std::printf("check %-10s %12.0f ev/s vs floor %12.0f (baseline %.0f) "
                  "%s\n",
                  gate.probe, gate.events_per_sec, floor, baseline,
                  pass ? "ok" : "REGRESSED");
      ok = ok && pass;
    }
    if (!ok) {
      std::fprintf(stderr, "service throughput regressed below the %s "
                   "floors\n", baseline_path);
      return 1;
    }
  }
  return 0;
}
