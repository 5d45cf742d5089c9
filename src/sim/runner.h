#ifndef ODBGC_SIM_RUNNER_H_
#define ODBGC_SIM_RUNNER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/selection_policy.h"
#include "observe/observer.h"
#include "sim/config.h"
#include "sim/metrics.h"
#include "util/status.h"

namespace odbgc {

/// Per-run observer factory: invoked once per (policy, seed) before the
/// run starts; the runner keeps the returned observer alive until the
/// whole experiment finishes. May return null to leave a run unobserved.
using ObserverFactory = std::function<std::unique_ptr<SimObserver>(
    const std::string& policy, uint64_t seed)>;

/// Per-run completion hook: invoked after each successful run with the
/// exact config the run used and its result. Calls are serialized by the
/// runner (no locking needed inside), but their order across runs is
/// whatever the thread pool produces.
using RunCompleteFn = std::function<void(const SimulationConfig& config,
                                         const SimulationResult& result)>;

/// An experiment: the same simulation run under several policies and
/// several seeds. Policies see identical traces per seed (the generator
/// never consults the heap), so differences are attributable to the
/// selection policy alone — the paper runs "10 sets of simulation runs,
/// each set with the same configuration parameters but with a different
/// random seed".
///
/// Policies are named: the axis is the policy registry (RegisterPolicy),
/// so extension and application-registered policies run through the same
/// spec as the paper's six. The builder methods cover the common setup so
/// benches and tools read as one expression:
///
///   auto experiment = RunExperiment(
///       ExperimentSpec::Base(PaperBaseConfig())
///           .WithPolicies({"UpdatedPointer", "CostBenefit"})
///           .WithSeeds(5)
///           .WithManifestDir("manifests/run1"));
struct ExperimentSpec {
  SimulationConfig base;
  /// Policy registry names, one run set each. Defaults to the paper's six.
  std::vector<std::string> policies = PaperPolicyNames();
  int num_seeds = 10;
  uint64_t first_seed = 1;
  /// Worker threads (runs are independent); 0 = hardware concurrency.
  int threads = 0;
  /// Optional per-run telemetry (see ObserverFactory).
  ObserverFactory observer_factory;
  /// Optional per-run completion hook (see RunCompleteFn).
  RunCompleteFn on_run_complete;
  /// When non-empty, the runner writes one canonical run manifest per
  /// (policy, seed) into this directory: <dir>/<policy>-s<seed>.json
  /// (see observe/manifest.h).
  std::string manifest_dir;

  // ---- Builder -----------------------------------------------------------
  static ExperimentSpec Base(SimulationConfig config) {
    ExperimentSpec spec;
    spec.base = std::move(config);
    return spec;
  }
  ExperimentSpec&& WithPolicies(std::vector<std::string> names) && {
    policies = std::move(names);
    return std::move(*this);
  }
  ExperimentSpec&& WithSeeds(int count, uint64_t first = 1) && {
    num_seeds = count;
    first_seed = first;
    return std::move(*this);
  }
  ExperimentSpec&& WithThreads(int count) && {
    threads = count;
    return std::move(*this);
  }
  ExperimentSpec&& WithObserver(ObserverFactory factory) && {
    observer_factory = std::move(factory);
    return std::move(*this);
  }
  ExperimentSpec&& WithRunCallback(RunCompleteFn callback) && {
    on_run_complete = std::move(callback);
    return std::move(*this);
  }
  ExperimentSpec&& WithManifestDir(std::string dir) && {
    manifest_dir = std::move(dir);
    return std::move(*this);
  }
};

/// All runs of one policy across the experiment's seeds (seed order).
struct PolicyRuns {
  /// Registry name — the set's identity.
  std::string name;
  std::vector<SimulationResult> runs;
};

struct Experiment {
  std::vector<PolicyRuns> sets;  // In spec.policies order.

  /// Runs of the named policy, or nullptr if it was not in the experiment.
  const PolicyRuns* Find(const std::string& name) const;
};

/// Executes the experiment (parallel across runs). Returns the first
/// error if any run fails. A configuration Validate rejects (an unknown
/// policy name among them) fails fast with InvalidArgument before any
/// heap is built.
Result<Experiment> RunExperiment(const ExperimentSpec& spec);

/// Executes one fully specified simulation run (policy and seed already
/// set on `config`). RunExperiment's default runs the configured workload
/// through a Simulator; RunExperimentWith swaps in another run function
/// (the OO1 sweep replays OO1Generator traces this way).
using RunSimulationFn =
    std::function<Result<SimulationResult>(const SimulationConfig& config)>;

/// RunExperiment with a custom per-run engine: `run_one` is invoked for
/// every (policy, seed) combination, possibly concurrently — it must be
/// thread-safe.
Result<Experiment> RunExperimentWith(const ExperimentSpec& spec,
                                     const RunSimulationFn& run_one);

}  // namespace odbgc

#endif  // ODBGC_SIM_RUNNER_H_
