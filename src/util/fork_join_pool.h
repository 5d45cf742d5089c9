#ifndef ODBGC_UTIL_FORK_JOIN_POOL_H_
#define ODBGC_UTIL_FORK_JOIN_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace odbgc {

/// A fork-join pool for callers that fan one batch of independent jobs out
/// from a single thread and wait for all of them (DESIGN.md §15): the heap
/// service's tenant rounds, the experiment runner's (policy, seed) grid and
/// a file device's multi-page batches.
///
/// `ForkJoinPool(threads)` runs each batch on `threads` executors: the
/// thread that calls Run plus `threads - 1` persistent workers, which park
/// on a condition variable between batches. Executors claim indices from
/// one shared counter, so a slow job never holds back the rest of the
/// batch. A one-thread pool spawns no workers and runs every batch on the
/// caller, in index order; so does any pool for a one-job batch.
///
/// The pool adds no determinism of its own: jobs run in any order on any
/// executor. Each caller makes that order unobservable (tenant heaps are
/// private and summed by an order-independent rule; grid cells and batch
/// transfers write to fixed slots).
class ForkJoinPool {
 public:
  /// `threads` executors, the caller of Run included (0 counts as 1).
  explicit ForkJoinPool(uint32_t threads);
  /// Joins the workers. Must not overlap a Run.
  ~ForkJoinPool();

  ForkJoinPool(const ForkJoinPool&) = delete;
  ForkJoinPool& operator=(const ForkJoinPool&) = delete;

  /// Calls fn(i) exactly once for each i < n and returns once every call
  /// has finished, with everything the calls wrote visible to the caller.
  /// A call that throws does not cut the batch short: Run rethrows the
  /// first exception caught once every call has finished. Call from one
  /// thread at a time, never from inside fn.
  void Run(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();
  void JoinWorkers();
  // Claims and runs indices of the current batch until none are left.
  void Drain(const std::function<void(size_t)>& fn, size_t n);

  // Guards the batch fields below; workers wait on wake_ for a seat, Run
  // waits on done_ for the seated workers to leave.
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  const std::function<void(size_t)>* fn_ = nullptr;
  size_t n_ = 0;
  // Workers that may still join the current batch, and workers that
  // joined it and have not yet left.
  size_t seats_ = 0;
  size_t seated_ = 0;
  std::exception_ptr error_;
  bool shutdown_ = false;
  // Next unclaimed index of the current batch.
  std::atomic<size_t> next_{0};
  std::vector<std::thread> workers_;
};

}  // namespace odbgc

#endif  // ODBGC_UTIL_FORK_JOIN_POOL_H_
