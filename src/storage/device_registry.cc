#include "storage/device_registry.h"

#include <map>
#include <mutex>
#include <utility>

namespace odbgc {

namespace {

struct Registry {
  std::mutex mutex;
  std::map<std::string, DeviceFactory> factories;
};

Registry& GlobalRegistry() {
  static Registry* registry = [] {
    auto* r = new Registry;
    r->factories["disk"] = [](const DeviceContext& context,
                              const std::string& arg)
        -> Result<std::unique_ptr<PageDevice>> {
      if (!arg.empty()) {
        return Status::InvalidArgument("device 'disk' takes no argument");
      }
      return std::unique_ptr<PageDevice>(std::make_unique<SimulatedDisk>(
          context.page_size, context.registry, context.disk_cost));
    };
    r->factories["ssd"] = [](const DeviceContext& context,
                             const std::string& arg)
        -> Result<std::unique_ptr<PageDevice>> {
      if (!arg.empty()) {
        return Status::InvalidArgument("device 'ssd' takes no argument");
      }
      return std::unique_ptr<PageDevice>(std::make_unique<SsdDevice>(
          context.page_size, context.registry, context.ssd_cost));
    };
    r->factories["file"] = [](const DeviceContext& context,
                              const std::string& arg)
        -> Result<std::unique_ptr<PageDevice>> {
      FileDeviceOptions options = context.file;
      if (!arg.empty()) options.path = arg;
      if (options.path.empty()) {
        return Status::InvalidArgument(
            "device 'file' needs a path: use \"file:<path>\" or set "
            "FileDeviceOptions::path");
      }
      auto device = std::make_unique<FileDevice>(context.page_size,
                                                 context.registry, options);
      // Open failures surface here, at the config boundary, instead of on
      // the first transfer.
      ODBGC_RETURN_IF_ERROR(device->status());
      return std::unique_ptr<PageDevice>(std::move(device));
    };
    return r;
  }();
  return *registry;
}

}  // namespace

Status RegisterDevice(const std::string& name, DeviceFactory factory) {
  if (name.empty() || name.find(':') != std::string::npos) {
    return Status::InvalidArgument("device name must be non-empty and ':'-free");
  }
  if (!factory) {
    return Status::InvalidArgument("null device factory");
  }
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto [it, inserted] =
      registry.factories.emplace(name, std::move(factory));
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("device '" + name + "' already registered");
  }
  return Status::Ok();
}

std::string DeviceSpecName(const std::string& spec) {
  if (spec.empty()) return "disk";
  const size_t colon = spec.find(':');
  return colon == std::string::npos ? spec : spec.substr(0, colon);
}

std::string DeviceSpecArg(const std::string& spec) {
  const size_t colon = spec.find(':');
  return colon == std::string::npos ? std::string() : spec.substr(colon + 1);
}

bool IsDeviceRegistered(const std::string& spec) {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  return registry.factories.count(DeviceSpecName(spec)) != 0;
}

std::vector<std::string> RegisteredDeviceNames() {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  std::vector<std::string> names;
  names.reserve(registry.factories.size());
  for (const auto& [name, factory] : registry.factories) {
    (void)factory;
    names.push_back(name);
  }
  return names;  // std::map iterates sorted.
}

Result<std::unique_ptr<PageDevice>> MakeDeviceFromSpec(
    const std::string& spec, const DeviceContext& context) {
  const std::string name = DeviceSpecName(spec);
  DeviceFactory factory;
  {
    Registry& registry = GlobalRegistry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    auto it = registry.factories.find(name);
    if (it != registry.factories.end()) factory = it->second;
  }
  if (!factory) {
    std::string known;
    for (const std::string& candidate : RegisteredDeviceNames()) {
      if (!known.empty()) known += ", ";
      known += candidate;
    }
    return Status::InvalidArgument("unknown device '" + name +
                                   "' (registered: " + known + ")");
  }
  return factory(context, DeviceSpecArg(spec));
}

std::string PerRunDeviceSpec(const std::string& spec,
                             const std::string& policy_name, uint64_t seed) {
  if (DeviceSpecName(spec) != "file") return spec;
  const std::string arg = DeviceSpecArg(spec);
  if (arg.empty()) return spec;
  return "file:" + arg + "-" + policy_name + "-s" + std::to_string(seed);
}

}  // namespace odbgc
