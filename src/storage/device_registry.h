#ifndef ODBGC_STORAGE_DEVICE_REGISTRY_H_
#define ODBGC_STORAGE_DEVICE_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "storage/disk.h"
#include "storage/file_device.h"
#include "storage/page_device.h"
#include "storage/ssd_device.h"
#include "util/status.h"

namespace odbgc {

// ---------------------------------------------------------------------------
// Named device registry: the storage twin of the policy registry. Backends
// are selected by *spec string* — `"name"` or `"name:arg"` — everywhere a
// built-in fits (HeapOptions::device_spec, SimulationConfig, manifests,
// the --device flag). Built-ins: "disk" (the paper's magnetic-disk model),
// "ssd", and "file" whose arg is the partition-file path ("file:/tmp/x.odb").

/// What a registry factory may bind when constructing a device.
struct DeviceContext {
  size_t page_size = kDefaultPageSize;
  /// Stack-wide metrics registry; nullptr lets the device own a private
  /// one (standalone/test use).
  MetricsRegistry* registry = nullptr;
  /// Timing model for "disk" (and for "file"'s estimated-time surface
  /// unless DeviceContext::file overrides it).
  DiskCostParams disk_cost;
  /// Geometry/timing model for "ssd".
  SsdCostParams ssd_cost;
  /// Template options for "file"; a spec argument overrides `file.path`.
  FileDeviceOptions file;
};

using DeviceFactory = std::function<Result<std::unique_ptr<PageDevice>>(
    const DeviceContext& context, const std::string& arg)>;

/// Registers `factory` under `name` (the part of a spec before ':').
/// AlreadyExists if taken (including the built-ins). Thread-safe.
Status RegisterDevice(const std::string& name, DeviceFactory factory);

/// True if the *name portion* of `spec` is registered.
bool IsDeviceRegistered(const std::string& spec);

/// Every registered name, sorted.
std::vector<std::string> RegisteredDeviceNames();

/// The name portion of a spec ("file:/tmp/x" -> "file"). An empty spec
/// names "disk": the benchmark harness (perfbench/main.cc) still builds
/// its simulated-disk reference run from one.
std::string DeviceSpecName(const std::string& spec);

/// The argument portion of a spec ("file:/tmp/x" -> "/tmp/x"; "" if none).
std::string DeviceSpecArg(const std::string& spec);

/// Constructs the backend `spec` names. InvalidArgument (listing the
/// registered names) for an unknown name; a factory may fail for its own
/// reasons (e.g. "file" cannot open its path). Thread-safe.
Result<std::unique_ptr<PageDevice>> MakeDeviceFromSpec(
    const std::string& spec, const DeviceContext& context);

/// Rewrites `spec` so concurrent runs of one experiment do not collide on
/// shared backing state: a "file" spec's path gains a "-<policy>-s<seed>"
/// suffix; stateless specs pass through unchanged. The experiment runner
/// applies this per (policy, seed) task.
std::string PerRunDeviceSpec(const std::string& spec,
                             const std::string& policy_name, uint64_t seed);

}  // namespace odbgc

#endif  // ODBGC_STORAGE_DEVICE_REGISTRY_H_
