#include "observe/manifest.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "storage/device_registry.h"
#include "util/crc32.h"

namespace odbgc {

namespace {

Json TimeSeriesJson(const TimeSeries& series) {
  Json points = Json::Arr();
  for (const TimeSeries::Point& point : series.points()) {
    Json pair = Json::Arr();
    pair.Push(Json::Double(point.x));
    pair.Push(Json::Double(point.y));
    points.Push(std::move(pair));
  }
  return points;
}

/// The result-determining configuration fields, as a canonical document.
/// Wall-clock profiling, the observer, and the per-run seed are
/// deliberately absent: none of them changes what the run computes (see
/// header contract).
/// Enums with stable string names use them; the rest serialize as their
/// numeric values.
Json ConfigJson(const SimulationConfig& config) {
  const HeapOptions& heap = config.heap;

  Json store = Json::Obj();
  store.Set("page_size", Json::UInt(heap.store.page_size));
  store.Set("pages_per_partition", Json::UInt(heap.store.pages_per_partition));
  store.Set("reserve_empty_partition",
            Json::Bool(heap.store.reserve_empty_partition));
  store.Set("placement", Json::UInt(static_cast<uint64_t>(heap.store.placement)));

  Json disk_cost = Json::Obj();
  disk_cost.Set("seek_ms", Json::Double(heap.disk_cost.seek_ms));
  disk_cost.Set("rotational_ms", Json::Double(heap.disk_cost.rotational_ms));
  disk_cost.Set("transfer_ms_per_page",
                Json::Double(heap.disk_cost.transfer_ms_per_page));

  Json ssd_cost = Json::Obj();
  ssd_cost.Set("pages_per_block", Json::UInt(heap.ssd_cost.pages_per_block));
  ssd_cost.Set("spare_blocks", Json::UInt(heap.ssd_cost.spare_blocks));
  ssd_cost.Set("read_ms_per_page", Json::Double(heap.ssd_cost.read_ms_per_page));
  ssd_cost.Set("program_ms_per_page",
               Json::Double(heap.ssd_cost.program_ms_per_page));
  ssd_cost.Set("erase_ms_per_block",
               Json::Double(heap.ssd_cost.erase_ms_per_block));

  Json heap_json = Json::Obj();
  heap_json.Set("store", std::move(store));
  heap_json.Set("buffer_pages", Json::UInt(heap.buffer_pages));
  // The registry *name* of the backend, never the full spec: a "file"
  // spec's path is per-run (the runner uniquifies it), and config digests
  // must stay identical across the runs of one experiment. The full spec
  // is recorded in the manifest's `measured` section instead.
  heap_json.Set("device", Json::Str(heap.device_spec.empty()
                                        ? DeviceKindName(heap.device)
                                        : DeviceSpecName(heap.device_spec)));
  heap_json.Set("disk_cost", std::move(disk_cost));
  heap_json.Set("ssd_cost", std::move(ssd_cost));
  // The buffer is always strict LRU; the key stays because config and
  // result digests hash it.
  heap_json.Set("replacement", Json::Str("lru"));
  heap_json.Set("policy_kind", Json::Str(PolicyName(heap.policy)));
  heap_json.Set("policy_name", Json::Str(heap.policy_name));
  heap_json.Set("trigger", Json::UInt(static_cast<uint64_t>(heap.trigger)));
  heap_json.Set("overwrite_trigger", Json::UInt(heap.overwrite_trigger));
  heap_json.Set("allocation_trigger_bytes",
                Json::UInt(heap.allocation_trigger_bytes));
  heap_json.Set("partitions_per_collection",
                Json::UInt(heap.partitions_per_collection));
  heap_json.Set("traversal", Json::UInt(static_cast<uint64_t>(heap.traversal)));
  heap_json.Set("full_collection_interval",
                Json::UInt(heap.full_collection_interval));
  heap_json.Set("weights", Json::UInt(static_cast<uint64_t>(heap.weights)));
  heap_json.Set("barrier", Json::Str(BarrierModeName(heap.barrier)));
  heap_json.Set("card_size", Json::UInt(heap.card_size));

  const WorkloadConfig& w = config.workload;
  Json workload = Json::Obj();
  workload.Set("target_live_bytes", Json::UInt(w.target_live_bytes));
  workload.Set("total_alloc_bytes", Json::UInt(w.total_alloc_bytes));
  workload.Set("min_object_size", Json::UInt(w.min_object_size));
  workload.Set("max_object_size", Json::UInt(w.max_object_size));
  workload.Set("slots_per_object", Json::UInt(w.slots_per_object));
  workload.Set("large_object_size", Json::UInt(w.large_object_size));
  workload.Set("large_space_fraction", Json::Double(w.large_space_fraction));
  workload.Set("dense_edge_prob", Json::Double(w.dense_edge_prob));
  workload.Set("dense_local_fraction", Json::Double(w.dense_local_fraction));
  workload.Set("dense_window", Json::UInt(w.dense_window));
  workload.Set("tree_nodes_min", Json::UInt(w.tree_nodes_min));
  workload.Set("tree_nodes_max", Json::UInt(w.tree_nodes_max));
  workload.Set("grow_nodes_min", Json::UInt(w.grow_nodes_min));
  workload.Set("grow_nodes_max", Json::UInt(w.grow_nodes_max));
  workload.Set("p_depth_first", Json::Double(w.p_depth_first));
  workload.Set("p_breadth_first", Json::Double(w.p_breadth_first));
  workload.Set("edge_skip_prob", Json::Double(w.edge_skip_prob));
  workload.Set("visit_modify_prob", Json::Double(w.visit_modify_prob));
  workload.Set("deletions_per_round", Json::Double(w.deletions_per_round));
  workload.Set("max_rounds", Json::UInt(w.max_rounds));

  Json out = Json::Obj();
  out.Set("heap", std::move(heap_json));
  out.Set("workload", std::move(workload));
  out.Set("snapshot_interval", Json::UInt(config.snapshot_interval));
  out.Set("census_at_snapshots", Json::Bool(config.census_at_snapshots));
  out.Set("warm_start", Json::Bool(config.warm_start));
  return out;
}

Json ResultJson(const SimulationResult& result) {
  Json out = Json::Obj();
  out.Set("policy_kind", Json::Str(PolicyName(result.policy)));
  out.Set("policy", Json::Str(result.policy_name));
  out.Set("seed", Json::UInt(result.seed));
  out.Set("device", Json::Str(DeviceKindName(result.device)));
  out.Set("replacement", Json::Str("lru"));  // See ConfigJson.
  out.Set("app_events", Json::UInt(result.app_events));
  out.Set("app_io", Json::UInt(result.app_io));
  out.Set("gc_io", Json::UInt(result.gc_io));
  out.Set("max_storage_bytes", Json::UInt(result.max_storage_bytes));
  out.Set("max_partitions", Json::UInt(result.max_partitions));
  out.Set("final_partitions", Json::UInt(result.final_partitions));
  out.Set("collections", Json::UInt(result.collections));
  out.Set("garbage_reclaimed_bytes", Json::UInt(result.garbage_reclaimed_bytes));
  out.Set("live_bytes_copied", Json::UInt(result.live_bytes_copied));
  out.Set("unreclaimed_garbage_bytes",
          Json::UInt(result.unreclaimed_garbage_bytes));
  out.Set("final_live_bytes", Json::UInt(result.final_live_bytes));
  out.Set("remset_entries", Json::UInt(result.remset_entries));
  out.Set("bytes_allocated", Json::UInt(result.bytes_allocated));
  out.Set("pointer_overwrites", Json::UInt(result.pointer_overwrites));
  out.Set("estimated_device_time_ms",
          Json::Double(result.estimated_device_time_ms));

  Json heap_stats = Json::Obj();
  const HeapStats& h = result.heap_stats;
  heap_stats.Set("collections", Json::UInt(h.collections));
  heap_stats.Set("full_collections", Json::UInt(h.full_collections));
  heap_stats.Set("pointer_stores", Json::UInt(h.pointer_stores));
  heap_stats.Set("pointer_overwrites", Json::UInt(h.pointer_overwrites));
  heap_stats.Set("objects_allocated", Json::UInt(h.objects_allocated));
  heap_stats.Set("bytes_allocated", Json::UInt(h.bytes_allocated));
  heap_stats.Set("garbage_bytes_reclaimed",
                 Json::UInt(h.garbage_bytes_reclaimed));
  heap_stats.Set("garbage_objects_reclaimed",
                 Json::UInt(h.garbage_objects_reclaimed));
  heap_stats.Set("live_bytes_copied", Json::UInt(h.live_bytes_copied));
  heap_stats.Set("live_objects_copied", Json::UInt(h.live_objects_copied));
  heap_stats.Set("max_total_bytes", Json::UInt(h.max_total_bytes));
  heap_stats.Set("max_partitions", Json::UInt(h.max_partitions));
  out.Set("heap_stats", std::move(heap_stats));

  Json buffer_stats = Json::Obj();
  const BufferStats& b = result.buffer_stats;
  buffer_stats.Set("hits", Json::UInt(b.hits));
  buffer_stats.Set("misses", Json::UInt(b.misses));
  buffer_stats.Set("reads_app", Json::UInt(b.reads_app));
  buffer_stats.Set("reads_gc", Json::UInt(b.reads_gc));
  buffer_stats.Set("writes_app", Json::UInt(b.writes_app));
  buffer_stats.Set("writes_gc", Json::UInt(b.writes_gc));
  out.Set("buffer_stats", std::move(buffer_stats));

  Json disk_stats = Json::Obj();
  const DiskStats& d = result.disk_stats;
  disk_stats.Set("page_reads", Json::UInt(d.page_reads));
  disk_stats.Set("page_writes", Json::UInt(d.page_writes));
  disk_stats.Set("sequential_transfers", Json::UInt(d.sequential_transfers));
  disk_stats.Set("random_transfers", Json::UInt(d.random_transfers));
  out.Set("disk_stats", std::move(disk_stats));

  Json metrics = Json::Obj();
  for (const MetricSample& sample : result.metrics) {
    Json entry = Json::Obj();
    entry.Set("application", Json::UInt(sample.application));
    entry.Set("collector", Json::UInt(sample.collector));
    metrics.Set(sample.name, std::move(entry));
  }
  out.Set("metrics", std::move(metrics));

  out.Set("unreclaimed_garbage_kb", TimeSeriesJson(result.unreclaimed_garbage_kb));
  out.Set("database_size_kb", TimeSeriesJson(result.database_size_kb));
  return out;
}

}  // namespace

uint32_t ConfigDigest(const SimulationConfig& config) {
  // The policy is an experiment axis like the seed: exclude both so every
  // run of one experiment shares a digest and cross-policy tables and
  // diffs can verify comparability.
  Json json = ConfigJson(config);
  Json& heap = json.object().at("heap");
  heap.object().erase("policy_kind");
  heap.object().erase("policy_name");
  return Crc32(json.Dump());
}

uint32_t ResultDigest(const Json& manifest) {
  const Json* section = manifest.Get("result");
  return Crc32(section == nullptr ? std::string() : section->Dump());
}

Json BuildManifest(const SimulationConfig& config,
                   const SimulationResult& result,
                   const ManifestServiceInfo* service) {
  Json manifest = Json::Obj();
  manifest.Set("schema_version", Json::UInt(kManifestSchemaVersion));
  // The kind the run instantiated: a policy chosen by registry name leaves
  // `config.heap.policy` at its default (the digest ignores both).
  Json config_json = ConfigJson(config);
  config_json.object().at("heap").Set("policy_kind",
                                      Json::Str(PolicyName(result.policy)));
  manifest.Set("config", std::move(config_json));
  manifest.Set("config_digest", Json::UInt(ConfigDigest(config)));
  manifest.Set("policy", Json::Str(result.policy_name));
  manifest.Set("seed", Json::UInt(result.seed));
  manifest.Set("result", ResultJson(result));
  // Measured wall-clock I/O, only for backends that perform real system
  // calls. A top-level sibling of `result` — never inside it — so the
  // deterministic surface (config, digest, result) stays byte-identical
  // across machines and reruns; in-memory manifests are unchanged.
  if (result.measured.measured) {
    const MeasuredIoStats& m = result.measured;
    Json measured = Json::Obj();
    measured.Set("device_spec", Json::Str(config.heap.device_spec));
    measured.Set("reads", Json::UInt(m.reads));
    measured.Set("writes", Json::UInt(m.writes));
    measured.Set("fsyncs", Json::UInt(m.fsyncs));
    measured.Set("batches", Json::UInt(m.batches));
    measured.Set("readahead_hits", Json::UInt(m.readahead_hits));
    measured.Set("readahead_misses", Json::UInt(m.readahead_misses));
    measured.Set("prefetched_pages", Json::UInt(m.prefetched_pages));
    measured.Set("wall_ms", Json::Double(m.wall_ms));
    manifest.Set("measured", std::move(measured));
  }
  // Per-tenant service telemetry, present only for manifests a
  // HeapService wrote. Same placement rule as `measured`: a
  // top-level sibling of `result`, excluded from the digest, so a
  // tenant's deterministic surface stays comparable with a standalone
  // run's while odbgc-report's tenants table reads the occupancy story.
  if (service != nullptr) {
    Json section = Json::Obj();
    section.Set("peak_resident_frames",
                Json::UInt(service->peak_resident_frames));
    section.Set("admission_stalls", Json::UInt(service->admission_stalls));
    manifest.Set("service", std::move(section));
  }
  return manifest;
}

namespace {

Status Missing(const std::string& path, const char* kind) {
  return Status::InvalidArgument("manifest missing " + std::string(kind) +
                                 " field \"" + path + "\"");
}

Status RequireString(const Json& object, const std::string& key) {
  const Json* field = object.Get(key);
  if (field == nullptr || !field->is_string()) return Missing(key, "string");
  return Status::Ok();
}

Status RequireNumber(const Json& object, const std::string& key) {
  const Json* field = object.Get(key);
  if (field == nullptr || !field->is_number()) return Missing(key, "numeric");
  return Status::Ok();
}

Status RequireObject(const Json& object, const std::string& key) {
  const Json* field = object.Get(key);
  if (field == nullptr || !field->is_object()) return Missing(key, "object");
  return Status::Ok();
}

}  // namespace

Status ValidateManifest(const Json& manifest) {
  if (!manifest.is_object()) {
    return Status::InvalidArgument("manifest is not a JSON object");
  }
  ODBGC_RETURN_IF_ERROR(RequireNumber(manifest, "schema_version"));
  const uint64_t version = manifest.Get("schema_version")->uint_value();
  if (version != kManifestSchemaVersion) {
    return Status::InvalidArgument(
        "unsupported manifest schema_version " + std::to_string(version) +
        " (this binary understands " +
        std::to_string(kManifestSchemaVersion) + ")");
  }
  ODBGC_RETURN_IF_ERROR(RequireObject(manifest, "config"));
  ODBGC_RETURN_IF_ERROR(RequireNumber(manifest, "config_digest"));
  ODBGC_RETURN_IF_ERROR(RequireString(manifest, "policy"));
  ODBGC_RETURN_IF_ERROR(RequireNumber(manifest, "seed"));
  ODBGC_RETURN_IF_ERROR(RequireObject(manifest, "result"));

  const Json& result = *manifest.Get("result");
  for (const char* key :
       {"app_events", "app_io", "gc_io", "max_storage_bytes", "collections",
        "garbage_reclaimed_bytes", "live_bytes_copied",
        "unreclaimed_garbage_bytes", "final_live_bytes", "remset_entries",
        "bytes_allocated", "pointer_overwrites", "estimated_device_time_ms",
        "seed"}) {
    ODBGC_RETURN_IF_ERROR(RequireNumber(result, key));
  }
  ODBGC_RETURN_IF_ERROR(RequireString(result, "policy"));
  ODBGC_RETURN_IF_ERROR(RequireObject(result, "heap_stats"));
  ODBGC_RETURN_IF_ERROR(RequireObject(result, "buffer_stats"));
  ODBGC_RETURN_IF_ERROR(RequireObject(result, "disk_stats"));
  ODBGC_RETURN_IF_ERROR(RequireObject(result, "metrics"));
  const Json* policy = manifest.Get("policy");
  if (policy->string_value() != result.Get("policy")->string_value()) {
    return Status::InvalidArgument(
        "manifest top-level policy does not match result.policy");
  }
  // `measured` is optional (present only for real-I/O backends); when
  // present it must be well-formed.
  const Json* measured = manifest.Get("measured");
  if (measured != nullptr) {
    if (!measured->is_object()) return Missing("measured", "object");
    for (const char* key :
         {"reads", "writes", "fsyncs", "batches", "readahead_hits",
          "readahead_misses", "prefetched_pages", "wall_ms"}) {
      ODBGC_RETURN_IF_ERROR(RequireNumber(*measured, key));
    }
    ODBGC_RETURN_IF_ERROR(RequireString(*measured, "device_spec"));
  }
  // `service` is optional (present only for HeapService tenant
  // manifests); when present it must be well-formed.
  const Json* service = manifest.Get("service");
  if (service != nullptr) {
    if (!service->is_object()) return Missing("service", "object");
    for (const char* key : {"peak_resident_frames", "admission_stalls"}) {
      ODBGC_RETURN_IF_ERROR(RequireNumber(*service, key));
    }
  }
  return Status::Ok();
}

std::string ManifestFileName(const std::string& policy_name, uint64_t seed) {
  return policy_name + "-s" + std::to_string(seed) + ".json";
}

Status WriteManifestFile(const std::string& path, const Json& manifest) {
  const std::filesystem::path target(path);
  std::error_code ec;
  if (target.has_parent_path()) {
    std::filesystem::create_directories(target.parent_path(), ec);
    if (ec) {
      return Status::IoError("cannot create manifest directory " +
                             target.parent_path().string());
    }
  }
  const std::filesystem::path temp(path + ".tmp");
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open " + temp.string());
    out << manifest.Dump();
    out.flush();
    if (!out.good()) return Status::IoError("write failed: " + temp.string());
  }
  std::filesystem::rename(temp, target, ec);
  if (ec) return Status::IoError("cannot rename " + temp.string());
  return Status::Ok();
}

Result<Json> LoadManifestFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open manifest " + path);
  std::ostringstream text;
  text << in.rdbuf();
  auto parsed = Json::Parse(text.str());
  if (!parsed.ok()) {
    return Status::InvalidArgument(path + ": " +
                                   parsed.status().message());
  }
  ODBGC_RETURN_IF_ERROR(ValidateManifest(*parsed));
  return parsed;
}

}  // namespace odbgc
