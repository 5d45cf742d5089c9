// Concurrency scaling probes (DESIGN.md §14/§15), two experiments in one
// binary. Every number is measured: each row runs kRepeats times and
// reports the median with the min and max, and the rows of one repeat run
// back to back, so drift on the host spreads over every row alike.
//
// 1. Uniform scaling: the hotpath suite's barrier-heavy workload replayed
//    through the ConcurrentSimulator at 1, 2, 4 and 8 threads over a
//    fixed set of 8 equal trace shards. Fixing the shard count while
//    varying threads isolates the parallelism axis: every row executes the
//    identical shard set, so the aggregate result must be bitwise
//    identical across rows and repeats (checked here — a scaling probe
//    that silently changed the answer would be worthless), and
//    events/sec measures the worker handoff cost plus parallel speedup.
//
// 2. Skewed shards: the same shard count with one shard carrying 8x the
//    volume of the other seven, under the census-heavy MostGarbage
//    policy, at 1 and at 4 threads. The giant shard is 8/15 of the work
//    and runs on one worker, so the 4-thread wall cannot fall below its
//    serial time; the headline is the measured 1-thread median wall over
//    the 4-thread median wall.
//
// Speedups depend on the machine's core count, reported in the JSON.
//
// Usage: mt_barrier_heavy [output.json]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "sim/concurrent_simulator.h"

namespace odbgc {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint32_t kShards = 8;
constexpr uint32_t kSkewThreads = 4;
constexpr int kRepeats = 5;

SimulationConfig BarrierHeavyConfig() {
  SimulationConfig c = bench::BaseConfig();
  c.heap.policy = PolicyKind::kMutatedPartition;
  c.heap.barrier = BarrierMode::kCardMarking;
  c.heap.store.placement = PlacementPolicy::kRoundRobin;
  c.workload.visit_modify_prob = 0.20;
  c.workload.dense_edge_prob = 0.167;
  c.trace_shards = kShards;
  return c;
}

// One shard 8x the rest, census-heavy policy. The giant shard is last, so
// it is the last shard a worker picks up.
SimulationConfig SkewedConfig() {
  SimulationConfig c = bench::BaseConfig();
  c.heap.policy = PolicyKind::kMostGarbage;
  // Collect (and hence census) aggressively, over small partitions, so
  // the giant shard's time is dominated by full-database censuses.
  c.heap.overwrite_trigger = 10;
  c.heap.store.pages_per_partition = 24;
  c.heap.buffer_pages = 24;
  c.trace_shards = kShards;
  c.shard_weights = {1, 1, 1, 1, 1, 1, 1, 8};
  return c;
}

struct Run {
  double wall_seconds = 0;
  SimulationResult result;
};

Run RunOnce(const SimulationConfig& config) {
  ConcurrentSimulator sim(config);
  const auto start = Clock::now();
  if (Status status = sim.Run(); !status.ok()) {
    bench::Fail(status, "mt_barrier_heavy");
  }
  Run run;
  run.result = sim.Finish();
  run.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return run;
}

/// The deterministic surface every run of one shard set must share (the
/// full field set is enforced by the equivalence test suite; the bench
/// spot-checks the headline counters so a divergence aborts the run
/// loudly).
bool SameAggregate(const SimulationResult& a, const SimulationResult& b) {
  return a.app_events == b.app_events && a.app_io == b.app_io &&
         a.gc_io == b.gc_io && a.collections == b.collections &&
         a.garbage_reclaimed_bytes == b.garbage_reclaimed_bytes &&
         a.bytes_allocated == b.bytes_allocated &&
         a.remset_entries == b.remset_entries &&
         a.max_storage_bytes == b.max_storage_bytes;
}

/// Every run of one thread count.
struct Row {
  explicit Row(uint32_t thread_count) : threads(thread_count) {}
  uint32_t threads = 0;
  uint64_t events = 0;
  std::vector<double> walls;
  std::vector<double> rates;  // events/sec (uniform rows only)
};

}  // namespace
}  // namespace odbgc

int main(int argc, char** argv) {
  using namespace odbgc;

  const char* json_path = "BENCH_concurrency.json";
  if (argc > 1) json_path = argv[1];

  bench::PrintHeader("Concurrent mutator scaling (barrier-heavy workload)",
                     "concurrency engineering (no paper table)");

  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u, trace shards: %u, repeats: %d\n\n",
              cores, kShards, kRepeats);

  // A probe's first run sets the aggregate every later run must match.
  std::optional<SimulationResult> uniform_reference;
  std::optional<SimulationResult> skew_reference;
  const auto check = [](const SimulationResult& result,
                        std::optional<SimulationResult>* reference,
                        const char* probe, uint32_t threads) {
    if (!reference->has_value()) {
      *reference = result;
    } else if (!SameAggregate(**reference, result)) {
      std::fprintf(stderr,
                   "%s: aggregate result diverged at %u threads — the "
                   "sharded mode is broken\n",
                   probe, threads);
      std::exit(1);
    }
  };

  std::vector<Row> rows;
  for (uint32_t threads : {1u, 2u, 4u, 8u}) rows.emplace_back(threads);
  Row skew_serial(1);
  Row skew_parallel(kSkewThreads);

  for (int rep = 0; rep < kRepeats; ++rep) {
    for (Row& row : rows) {
      SimulationConfig config = BarrierHeavyConfig();
      config.mutator_threads = row.threads;
      const Run run = RunOnce(config);
      check(run.result, &uniform_reference, "uniform", row.threads);
      row.events = run.result.app_events;
      row.walls.push_back(run.wall_seconds);
      row.rates.push_back(static_cast<double>(row.events) /
                          run.wall_seconds);
    }
    for (Row* row : {&skew_serial, &skew_parallel}) {
      SimulationConfig config = SkewedConfig();
      config.mutator_threads = row->threads;
      const Run run = RunOnce(config);
      check(run.result, &skew_reference, "skewed", row->threads);
      row->events = run.result.app_events;
      row->walls.push_back(run.wall_seconds);
    }
  }

  const bench::Spread base_rate = bench::SpreadOf(rows.front().rates);
  for (const Row& row : rows) {
    const bench::Spread rate = bench::SpreadOf(row.rates);
    std::printf(
        "threads=%u  events=%-10llu events/sec median=%12.0f "
        "[%12.0f, %12.0f]  speedup=%.2fx\n",
        row.threads, static_cast<unsigned long long>(row.events),
        rate.median, rate.min, rate.max, rate.median / base_rate.median);
  }

  const bench::Spread serial_wall = bench::SpreadOf(skew_serial.walls);
  const bench::Spread parallel_wall = bench::SpreadOf(skew_parallel.walls);
  const double skew_speedup = serial_wall.median / parallel_wall.median;
  std::printf("\nskewed shards (weights 1,1,1,1,1,1,1,8; MostGarbage):\n");
  std::printf("  1 thread   wall median=%8.3fs [%8.3f, %8.3f]\n",
              serial_wall.median, serial_wall.min, serial_wall.max);
  std::printf("  %u threads  wall median=%8.3fs [%8.3f, %8.3f]"
              "  speedup=%.2fx\n",
              kSkewThreads, parallel_wall.median, parallel_wall.min,
              parallel_wall.max, skew_speedup);

  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"mt_barrier_heavy\",\n";
  json << "  \"fast_mode\": " << (bench::FastMode() ? "true" : "false")
       << ",\n";
  json << "  \"hardware_threads\": " << cores << ",\n";
  json << "  \"trace_shards\": " << kShards << ",\n";
  json << "  \"repeats\": " << kRepeats << ",\n  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const bench::Spread rate = bench::SpreadOf(r.rates);
    json << "    {\n      \"threads\": " << r.threads << ",\n";
    json << "      \"events\": " << r.events << ",\n      ";
    bench::WriteSpread(json, "wall_seconds", bench::SpreadOf(r.walls));
    json << ",\n      ";
    bench::WriteSpread(json, "events_per_sec", rate);
    json << ",\n      \"speedup_vs_1\": " << rate.median / base_rate.median
         << "\n    }" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"skewed\": {\n";
  json << "    \"threads\": " << kSkewThreads << ",\n";
  json << "    \"shard_weights\": [1, 1, 1, 1, 1, 1, 1, 8],\n";
  json << "    \"policy\": \"MostGarbage\",\n";
  json << "    \"events\": " << skew_parallel.events << ",\n    ";
  bench::WriteSpread(json, "wall_seconds_1_thread", serial_wall);
  json << ",\n    ";
  bench::WriteSpread(json, "wall_seconds_4_threads", parallel_wall);
  json << ",\n    \"speedup_vs_1_thread\": " << skew_speedup << "\n";
  json << "  },\n  \"aggregate_invariant\": true\n}\n";
  json.close();
  std::printf("\nWrote %s\n", json_path);
  return json.good() ? 0 : 1;
}
