#include "sim/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "observe/manifest.h"
#include "sim/concurrent_simulator.h"
#include "sim/simulator.h"
#include "storage/device_registry.h"
#include "storage/io_scheduler.h"
#include "util/fork_join_pool.h"

namespace odbgc {

const PolicyRuns* Experiment::Find(const std::string& name) const {
  for (const auto& set : sets) {
    if (set.name == name) return &set;
  }
  return nullptr;
}

const PolicyRuns* Experiment::Find(PolicyKind policy) const {
  for (const auto& set : sets) {
    if (set.policy == policy) return &set;
  }
  return nullptr;
}

Result<Experiment> RunExperiment(const ExperimentSpec& spec) {
  return RunExperimentWith(
      spec, [](const SimulationConfig& config) -> Result<SimulationResult> {
        if (config.mutator_threads > 1 || config.trace_shards > 1) {
          ConcurrentSimulator simulator(config);
          ODBGC_RETURN_IF_ERROR(simulator.Run());
          return simulator.Finish();
        }
        Simulator simulator(config);
        ODBGC_RETURN_IF_ERROR(simulator.Run());
        return simulator.Finish();
      });
}

Result<Experiment> RunExperimentWith(const ExperimentSpec& spec,
                                     const RunSimulationFn& run_one) {
  // Fail fast on unknown names: a worker thread aborting inside the heap
  // is a far worse failure mode than an error here.
  for (const std::string& name : spec.policies) {
    if (!IsPolicyRegistered(name)) {
      return Status::InvalidArgument("unknown policy name: " + name);
    }
  }

  struct Task {
    size_t set_index;
    size_t run_index;
    const std::string* policy;
    uint64_t seed;
  };

  Experiment experiment;
  std::vector<Task> tasks;
  for (size_t p = 0; p < spec.policies.size(); ++p) {
    PolicyRuns set;
    set.name = spec.policies[p];
    set.runs.resize(spec.num_seeds);
    experiment.sets.push_back(std::move(set));
    for (int s = 0; s < spec.num_seeds; ++s) {
      tasks.push_back({p, static_cast<size_t>(s), &spec.policies[p],
                       spec.first_seed + static_cast<uint64_t>(s)});
    }
  }

  // Observers live here so they outlive their runs regardless of which
  // worker finishes last; one slot per task, no contention.
  std::vector<std::unique_ptr<SimObserver>> observers(tasks.size());

  int threads = spec.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 4;
  }
  threads = std::min<int>(threads, static_cast<int>(tasks.size()));

  // One scheduler worker pool for every run's "file" backend, instead of
  // a private pool per run. Only meaningful for grids over a "file" spec;
  // devices serialize whole submit+Drain batches through the scheduler's
  // producer lock. Declared before any run starts and destroyed after the
  // grid drains (devices hold a non-owning pointer).
  std::unique_ptr<IoScheduler> shared_io;
  if (spec.share_io_scheduler &&
      DeviceSpecName(spec.base.heap.device_spec) == "file") {
    IoSchedulerOptions io;
    io.threads = spec.base.heap.file_device.io_threads;
    io.backend = spec.base.heap.file_device.backend;
    shared_io = std::make_unique<IoScheduler>(io);
  }

  std::mutex error_mutex;
  Status first_error;
  std::atomic<bool> aborted{false};
  // Serializes on_run_complete and manifest writes.
  std::mutex complete_mutex;
  Status complete_error;

  // One grid cell. Cells write to disjoint result slots, so the
  // scheduler's execution order is unobservable in the returned
  // Experiment (runs stay in policy-then-seed order).
  auto run_cell = [&](size_t i) {
    if (aborted.load(std::memory_order_relaxed)) return;
    const Task& task = tasks[i];

    SimulationConfig config = spec.base;
    config.seed = task.seed;
    config.heap.policy_name = *task.policy;
    // Stateful backends must not share backing storage across the
    // concurrent (policy, seed) runs of one experiment: a "file" spec's
    // path is suffixed per run, stateless specs pass through.
    config.heap.device_spec = PerRunDeviceSpec(
        config.heap.device_spec, *task.policy, task.seed);
    if (shared_io != nullptr) {
      config.heap.file_device.shared_scheduler = shared_io.get();
    }
    if (spec.observer_factory) {
      observers[i] = spec.observer_factory(*task.policy, task.seed);
      config.heap.observer = observers[i].get();
    }

    const auto start = std::chrono::steady_clock::now();
    auto result = run_one(config);
    if (!result.ok()) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (first_error.ok()) first_error = result.status();
      aborted.store(true, std::memory_order_relaxed);
      return;
    }
    if (spec.record_timing) {
      result->run_wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
    }

    if (spec.on_run_complete || !spec.manifest_dir.empty()) {
      std::lock_guard<std::mutex> lock(complete_mutex);
      if (!spec.manifest_dir.empty()) {
        const std::string path =
            spec.manifest_dir + "/" +
            ManifestFileName(result->policy_name, result->seed);
        const Status written =
            WriteManifestFile(path, BuildManifest(config, *result));
        if (!written.ok() && complete_error.ok()) complete_error = written;
      }
      if (spec.on_run_complete) spec.on_run_complete(config, *result);
    }

    experiment.sets[task.set_index].runs[task.run_index] =
        std::move(result).value();
  };

  // Executors claim cells one at a time (DESIGN.md §15), so a long run (a
  // slow policy, a big seed) does not hold back a static share of the grid
  // behind it. One thread runs the cells inline, in order.
  ForkJoinPool pool(static_cast<uint32_t>(threads));
  pool.Run(tasks.size(), run_cell);

  if (!first_error.ok()) return first_error;
  if (!complete_error.ok()) return complete_error;

  // Stamp each set's behaviour class from its runs (every run of a set
  // uses the same policy, so the first is representative).
  for (PolicyRuns& set : experiment.sets) {
    if (!set.runs.empty()) set.policy = set.runs.front().policy;
  }
  return experiment;
}

}  // namespace odbgc
