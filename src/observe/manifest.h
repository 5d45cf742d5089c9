#ifndef ODBGC_OBSERVE_MANIFEST_H_
#define ODBGC_OBSERVE_MANIFEST_H_

#include <cstdint>
#include <string>

#include "observe/json.h"
#include "sim/config.h"
#include "sim/metrics.h"
#include "util/status.h"

namespace odbgc {

/// The canonical per-run record: one schema-versioned JSON document per
/// (policy, seed) capturing the configuration that determined the run, a
/// digest of it, and the complete SimulationResult — every counter the
/// paper's tables draw on. Manifests are the interchange format between
/// the experiment runners and `odbgc-report`.
///
/// Determinism contract: the `config`, `config_digest` and `result`
/// sections are a pure function of (result-determining config,
/// SimulationResult). Since simulation results are bit-identical across
/// reruns of the same (config, seed) and Json::Dump() is canonical, those
/// sections of a rerun are **byte-identical** to the first run's.
/// Wall-clock measurements never enter them — they flow through
/// SimObserver::OnPhase and the heap's wall_metrics() registry, and, for
/// real-I/O backends ("file"), into the OPTIONAL top-level `measured`
/// section: physical transfer/fsync counts, read-ahead outcomes and wall
/// milliseconds, plus the per-run device spec. `measured` is absent for
/// in-memory backends (their manifests are unchanged) and excluded from
/// the digest.

/// Bumped whenever a field is added, removed, or changes meaning.
inline constexpr uint64_t kManifestSchemaVersion = 1;

/// CRC-32 of the canonical serialization of `config`'s result-determining
/// fields. The two experiment axes — seed and policy identity — are
/// excluded: the digest identifies the *experiment*, whose runs vary
/// exactly those two. Two configs with equal digests produce comparable
/// runs; odbgc-report refuses to diff manifest sets whose digests differ.
uint32_t ConfigDigest(const SimulationConfig& config);

/// CRC-32 of the canonical `result` section of `manifest` (of "" if it
/// has none): every deterministic field of a SimulationResult, nothing
/// measured. Equal digests mean byte-identical results.
uint32_t ResultDigest(const Json& manifest);

/// Per-tenant service telemetry for manifests written by a HeapService
/// run: the tenant's peak barrier residency, how many rounds the
/// admission watermark stalled it. Lands in the OPTIONAL top-level
/// `service` section — same placement rule as `measured`: a sibling of
/// `result`, excluded from the config digest, absent from standalone
/// manifests.
struct ManifestServiceInfo {
  uint64_t peak_resident_frames = 0;
  uint64_t admission_stalls = 0;
};

/// Builds the manifest document for one finished run. `service` non-null
/// adds the optional `service` section (HeapService tenants only).
Json BuildManifest(const SimulationConfig& config,
                   const SimulationResult& result,
                   const ManifestServiceInfo* service = nullptr);

/// Schema check: required keys present with the right types and the
/// schema_version is one this binary understands. InvalidArgument with a
/// field path otherwise.
Status ValidateManifest(const Json& manifest);

/// Canonical manifest file name for a run: "<policy>-s<seed>.json".
std::string ManifestFileName(const std::string& policy_name, uint64_t seed);

/// Writes `manifest` canonically to `path` (parent directories are
/// created). The write goes through a temp file + rename so a crashed
/// writer never leaves a torn manifest behind.
Status WriteManifestFile(const std::string& path, const Json& manifest);

/// Reads and parses a manifest file; also validates the schema.
Result<Json> LoadManifestFile(const std::string& path);

}  // namespace odbgc

#endif  // ODBGC_OBSERVE_MANIFEST_H_
