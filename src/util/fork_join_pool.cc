#include "util/fork_join_pool.h"

#include <algorithm>
#include <utility>

namespace odbgc {

ForkJoinPool::ForkJoinPool(uint32_t threads) {
  const uint32_t workers = threads > 1 ? threads - 1 : 0;
  workers_.reserve(workers);
  try {
    for (uint32_t i = 0; i < workers; ++i) {
      workers_.emplace_back(&ForkJoinPool::WorkerLoop, this);
    }
  } catch (...) {
    // No destructor runs for a half-built pool: join what did start.
    JoinWorkers();
    throw;
  }
}

ForkJoinPool::~ForkJoinPool() { JoinWorkers(); }

void ForkJoinPool::JoinWorkers() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ForkJoinPool::Drain(const std::function<void(size_t)>& fn, size_t n) {
  for (size_t i = next_.fetch_add(1, std::memory_order_relaxed); i < n;
       i = next_.fetch_add(1, std::memory_order_relaxed)) {
    // A throwing call does not stop the batch: every index still runs
    // once, and Run rethrows the first exception afterwards.
    try {
      fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (error_ == nullptr) error_ = std::current_exception();
    }
  }
}

void ForkJoinPool::Run(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // One seat per job beyond the caller's own first one.
  const size_t seats = std::min(n - 1, workers_.size());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    n_ = n;
    next_.store(0, std::memory_order_relaxed);
    seats_ = seats;
  }
  for (size_t i = 0; i < seats; ++i) wake_.notify_one();
  Drain(fn, n);

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Every index is claimed by now, so a worker that has not woken yet
    // would find nothing to run: withdraw its seat rather than wait for it.
    seats_ = 0;
    done_.wait(lock, [this] { return seated_ == 0; });
    fn_ = nullptr;
    error = std::exchange(error_, nullptr);
  }
  if (error != nullptr) std::rethrow_exception(error);
}

void ForkJoinPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [this] { return shutdown_ || seats_ > 0; });
    if (shutdown_) return;
    --seats_;
    ++seated_;
    const std::function<void(size_t)>& fn = *fn_;
    const size_t n = n_;
    lock.unlock();
    Drain(fn, n);
    lock.lock();
    if (--seated_ == 0) done_.notify_one();
  }
}

}  // namespace odbgc
