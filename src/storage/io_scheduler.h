#ifndef ODBGC_STORAGE_IO_SCHEDULER_H_
#define ODBGC_STORAGE_IO_SCHEDULER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "util/status.h"

namespace odbgc {

/// Which engine actually moves the bytes.
enum class IoBackend : uint8_t {
  /// Portable engine: a pool of worker threads issuing pread/pwrite.
  kThreadPool = 0,
  /// Linux io_uring (compiled in only when <liburing.h> is available;
  /// falls back to the thread pool when the kernel refuses a ring).
  kIoUring = 1,
};

const char* IoBackendName(IoBackend backend);

struct IoSchedulerOptions {
  /// Worker threads for the portable backend; 0 = hardware concurrency
  /// (at least 1). Ignored by the io_uring backend.
  int threads = 0;
  /// Preferred backend. kIoUring silently degrades to kThreadPool when
  /// io_uring support is not compiled in or ring setup fails.
  IoBackend backend = IoBackend::kThreadPool;
};

/// Returns the best backend this build/kernel supports (kIoUring when the
/// build has liburing and the kernel accepts a ring, else kThreadPool).
IoBackend DetectIoBackend();

/// An asynchronous batched read/write queue over one or more file
/// descriptors — the engine under FileDevice's write-back batches and
/// read-ahead prefetches.
///
/// Usage is submit*, then Drain(): submissions enqueue jobs whose buffers
/// MUST stay valid until Drain returns; Drain is a barrier that waits for
/// every outstanding job and reports the first failure in *submission*
/// order (so error reporting does not depend on completion order or
/// thread count). Jobs target explicit file offsets; concurrent jobs in
/// one batch must cover disjoint ranges — FileDevice guarantees that by
/// deduplicating pages per batch — which is what makes the resulting file
/// bytes independent of worker count and completion order.
///
/// Thread-pool execution is caller-runs: Drain executes, on the calling
/// thread, every job no worker has claimed, and submissions wake a worker
/// only for a batch's second and later jobs. A one-job batch (FileDevice's
/// single-page ReadPage/WritePage) therefore normally runs on the producer
/// thread, while prefetch and multi-page write batches still fan out.
///
/// Thread safety: one producer thread submits and drains; while it drains,
/// it and the workers execute jobs of the same batch side by side. (The
/// submit/drain surface itself is not reentrant.) Multiple producers —
/// e.g. a parallel experiment grid's file devices sharing one scheduler —
/// serialize whole submit+Drain batches through AcquireProducerLock, which
/// restores the single-producer contract one batch at a time.
class IoScheduler {
 public:
  explicit IoScheduler(const IoSchedulerOptions& options = {});
  ~IoScheduler();

  IoScheduler(const IoScheduler&) = delete;
  IoScheduler& operator=(const IoScheduler&) = delete;

  /// Claims exclusive use of the submit/Drain surface for one batch.
  /// Hold the returned lock across the whole submit*-then-Drain sequence.
  /// Single-producer users may skip this entirely (the lock protects
  /// nothing they contend on).
  std::unique_lock<std::mutex> AcquireProducerLock() {
    return std::unique_lock<std::mutex>(producer_mutex_);
  }

  /// Enqueues a full write of `data` at `offset` on `fd`.
  void SubmitWrite(int fd, uint64_t offset, std::span<const std::byte> data);

  /// Enqueues a full read into `out` from `offset` on `fd`. Reads past
  /// end-of-file zero-fill the tail (a page never written is all zeros).
  void SubmitRead(int fd, uint64_t offset, std::span<std::byte> out);

  /// Barrier: waits for every submitted job, clears the queue, and
  /// returns the first error in submission order (Ok if none).
  Status Drain();

  /// Jobs executed since construction (reads + writes), for tests.
  uint64_t jobs_completed() const { return jobs_completed_; }

  /// The engine actually in use (after any io_uring fallback).
  IoBackend backend() const { return backend_; }
  int threads() const { return static_cast<int>(workers_.size()); }

 private:
  struct Job {
    int fd = -1;
    uint64_t offset = 0;
    bool is_write = false;
    std::span<const std::byte> write_data;
    std::span<std::byte> read_data;
    Status status;
  };

  // Appends `job` to the open batch, waking a worker unless it is the
  // batch's first job.
  void Enqueue(const Job& job);
  // Claims the next unclaimed job, executes it with `lock` released, and
  // records its status. Requires `lock` held on mutex_ and an unclaimed job.
  void RunNextJob(std::unique_lock<std::mutex>& lock);
  void WorkerLoop();
  static Status Execute(const Job& job);

#if defined(ODBGC_HAVE_LIBURING)
  Status DrainUring();
#endif

  IoBackend backend_ = IoBackend::kThreadPool;
  uint64_t jobs_completed_ = 0;

  // Serializes producers that share this scheduler (AcquireProducerLock);
  // never touched on the single-producer path.
  std::mutex producer_mutex_;

  // Thread-pool backend state. Jobs accumulate in `jobs_`; workers and the
  // draining thread claim them by index through `next_job_`. Drain returns
  // once jobs_done_ == jobs_.size().
  std::vector<Job> jobs_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable batch_done_;
  size_t next_job_ = 0;
  size_t jobs_done_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;

#if defined(ODBGC_HAVE_LIBURING)
  // Opaque ring handle (io_uring struct lives in the .cc to keep liburing
  // out of this header).
  void* ring_ = nullptr;
#endif
};

}  // namespace odbgc

#endif  // ODBGC_STORAGE_IO_SCHEDULER_H_
