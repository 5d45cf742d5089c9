#ifndef ODBGC_STORAGE_PAGE_DEVICE_H_
#define ODBGC_STORAGE_PAGE_DEVICE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "storage/extent.h"
#include "storage/page.h"
#include "util/metrics_registry.h"
#include "util/status.h"

namespace odbgc {

class SimObserver;

/// The storage backends, as PageDevice::kind() reports them (a config
/// names its backend by registry spec, HeapOptions::device_spec). The paper
/// fixes one device model (a seek/rotation/transfer magnetic disk, Section
/// 4.2); device economics invert policy rankings on other media, so the
/// backend is a first-class experiment axis.
enum class DeviceKind : uint8_t {
  kSimulatedDisk = 0,  ///< Seek + rotation + transfer (the paper's model).
  kSsd = 1,            ///< Flash with erase-block GC amplification.
  kFile = 2,           ///< A real partition file (pread/pwrite + fsync).
};

const char* DeviceKindName(DeviceKind kind);

/// Cumulative device transfer counters (snapshot built from the metrics
/// registry — see PageDevice::stats).
struct DiskStats {
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  /// Transfers whose page immediately follows the previously accessed
  /// page (no head movement); the rest pay the device's random-access
  /// cost under its timing model.
  uint64_t sequential_transfers = 0;
  uint64_t random_transfers = 0;

  uint64_t total() const { return page_reads + page_writes; }
};

/// Real (wall-clock) I/O activity of a backend, for devices that perform
/// actual system calls. Deliberately separate from the simulated transfer
/// counters in the MetricsRegistry: simulated counters are bit-identical
/// across runs and machines; measured numbers never are, so they flow only
/// into the manifest's `measured` section and SimObserver events.
/// All-zero (`measured == false`) for in-memory backends.
struct MeasuredIoStats {
  /// True if this device performs real I/O (i.e. the numbers below mean
  /// something).
  bool measured = false;
  /// Physical page-frame transfers actually issued (a read served from the
  /// read-ahead cache does not count here, though it still counts as a
  /// simulated page read).
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t fsyncs = 0;
  /// Multi-page batches issued (WritePages and Prefetch).
  uint64_t batches = 0;
  /// Read-ahead cache outcomes across all ReadPage calls.
  uint64_t readahead_hits = 0;
  uint64_t readahead_misses = 0;
  /// Pages staged by PrefetchExtent/Prefetch calls.
  uint64_t prefetched_pages = 0;
  /// Wall-clock time spent inside pread/pwrite/fsync, in milliseconds.
  double wall_ms = 0.0;
};

/// One page write of a batch (see PageDevice::WritePages). The data span
/// must stay valid until the call returns.
struct PageWriteRequest {
  PageId page = kInvalidPageId;
  std::span<const std::byte> data;
};

/// A simulated secondary-memory device holding fixed-size pages: the seam
/// between the buffer pool and whatever medium the experiment models.
///
/// Devices store real bytes (the object store serializes objects into
/// pages, and the collector physically copies them), and count every page
/// transfer in the shared MetricsRegistry — under the phase that was
/// active when the transfer happened. The trace-driven cost model of the
/// paper is "number of page I/O operations"; EstimateTimeMs maps those
/// operations onto the device's own timing model. Transfers are issued by
/// the BufferPool — client code never reads a device directly.
///
/// The base class owns what every backend shares: transfer counters and
/// sequential/random classification.
class PageDevice {
 public:
  /// `registry` is the stack-wide metrics registry; pass nullptr to let
  /// the device own a private one (standalone/test use).
  PageDevice(size_t page_size, MetricsRegistry* registry);
  virtual ~PageDevice();

  PageDevice(const PageDevice&) = delete;
  PageDevice& operator=(const PageDevice&) = delete;

  virtual DeviceKind kind() const = 0;

  /// Appends `count` zero-filled pages; returns the extent covering them.
  /// This is how the database grows by one partition at a time.
  virtual PageExtent AllocatePages(size_t count) = 0;

  /// Copies page `page` into `out` (size must equal page_size()).
  /// Counts one page read.
  virtual Status ReadPage(PageId page, std::span<std::byte> out) = 0;

  /// Overwrites page `page` from `in` (size must equal page_size()).
  /// Counts one page write.
  virtual Status WritePage(PageId page, std::span<const std::byte> in) = 0;

  /// Writes `count` pages as one barrier-delimited batch, stopping at the
  /// first error; `*written` (may be null) receives the number of pages
  /// accepted (== `count` iff the status is Ok). The default loops over
  /// WritePage — identical counters to `count` single writes; FileDevice
  /// overrides it to fan the physical writes out over its batch executors
  /// and fsync once at the end.
  /// Transfer counting always happens on the calling thread, in request
  /// order, so simulated results do not depend on the backend or its
  /// thread count.
  virtual Status WritePages(const PageWriteRequest* requests, size_t count,
                            size_t* written);

  /// Hints that `pages` will be read soon (the collector announces a
  /// victim partition's extent before its copy traversal). Advisory:
  /// backends without a read-ahead path ignore it, and it never touches
  /// the simulated transfer counters.
  virtual void Prefetch(std::span<const PageId> pages) { (void)pages; }

  /// Durability barrier: everything written so far reaches stable storage
  /// before the call returns (fsync for file-backed devices; a no-op for
  /// in-memory simulation).
  virtual Status Sync() { return Status::Ok(); }

  /// Real-I/O activity (see MeasuredIoStats). Default: not measured.
  virtual MeasuredIoStats MeasuredStats() const { return {}; }

  virtual size_t num_pages() const = 0;

  /// Estimated device time for all transfers recorded so far, under this
  /// device's own cost model (the "more detailed cost model" the paper's
  /// Section 4.2 invites).
  virtual double EstimateTimeMs() const = 0;

  size_t page_size() const { return page_size_; }

  /// The registry this device (and the pool above it) charge into.
  MetricsRegistry* metrics() const { return registry_; }

  /// Transfer counters as the classic snapshot struct.
  DiskStats stats() const;

  /// Zeroes this device's transfer counters (e.g., after a warm-up
  /// phase). The access-classification cursor is left untouched.
  void ResetStats();

  /// Attaches a run-telemetry sink for the device's batch, sync and
  /// read-ahead events (non-owning; null — the default — detaches).
  void set_observer(SimObserver* observer) { observer_ = observer; }

 protected:
  // Counts one read/write plus its sequential/random classification,
  // charged to the registry's current phase.
  void CountRead(PageId page);
  void CountWrite(PageId page);

  // The attached telemetry sink (may be null).
  SimObserver* observer() const { return observer_; }

  // Registers an extra backend-specific counter that ResetStats should
  // also zero (e.g. the SSD's erase count).
  MetricCounter* RegisterDeviceCounter(const std::string& name);

 private:
  void NoteAccess(PageId page);

  const size_t page_size_;
  // Set when the device was constructed without a shared registry.
  std::unique_ptr<MetricsRegistry> owned_registry_;
  MetricsRegistry* const registry_;

  MetricCounter* const reads_;
  MetricCounter* const writes_;
  MetricCounter* const sequential_;
  MetricCounter* const random_;
  std::vector<MetricCounter*> device_counters_;

  PageId last_accessed_ = kInvalidPageId;

  SimObserver* observer_ = nullptr;
};

}  // namespace odbgc

#endif  // ODBGC_STORAGE_PAGE_DEVICE_H_
