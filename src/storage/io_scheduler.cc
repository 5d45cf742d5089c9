#include "storage/io_scheduler.h"

#include <cerrno>
#include <cstring>
#include <string>

#include <unistd.h>

#if __has_include(<liburing.h>)
#define ODBGC_HAVE_LIBURING 1
#include <liburing.h>
#endif

namespace odbgc {

const char* IoBackendName(IoBackend backend) {
  switch (backend) {
    case IoBackend::kThreadPool:
      return "thread_pool";
    case IoBackend::kIoUring:
      return "io_uring";
  }
  return "unknown";
}

IoBackend DetectIoBackend() {
#if defined(ODBGC_HAVE_LIBURING)
  struct io_uring probe;
  if (io_uring_queue_init(4, &probe, 0) == 0) {
    io_uring_queue_exit(&probe);
    return IoBackend::kIoUring;
  }
#endif
  return IoBackend::kThreadPool;
}

namespace {

Status ErrnoError(const char* op, int err) {
  return Status::IoError(std::string(op) + " failed: " + std::strerror(err));
}

// Full-coverage pwrite: loops over partial writes.
Status WriteFully(int fd, uint64_t offset, std::span<const std::byte> data) {
  size_t done = 0;
  while (done < data.size()) {
    const ssize_t n =
        ::pwrite(fd, data.data() + done, data.size() - done,
                 static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("pwrite", errno);
    }
    if (n == 0) return Status::IoError("pwrite wrote nothing");
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

// Full-coverage pread: loops over partial reads and zero-fills past EOF
// (an unwritten page reads as zeros, like a freshly allocated simulated
// page).
Status ReadFully(int fd, uint64_t offset, std::span<std::byte> out) {
  size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::pread(fd, out.data() + done, out.size() - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("pread", errno);
    }
    if (n == 0) {
      std::memset(out.data() + done, 0, out.size() - done);
      return Status::Ok();
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

IoScheduler::IoScheduler(const IoSchedulerOptions& options) {
  backend_ = options.backend;
#if defined(ODBGC_HAVE_LIBURING)
  if (backend_ == IoBackend::kIoUring) {
    auto* ring = new struct io_uring;
    if (io_uring_queue_init(256, ring, 0) == 0) {
      ring_ = ring;
    } else {
      delete ring;
      backend_ = IoBackend::kThreadPool;
    }
  }
#else
  if (backend_ == IoBackend::kIoUring) backend_ = IoBackend::kThreadPool;
#endif
  if (backend_ == IoBackend::kThreadPool) {
    int threads = options.threads;
    if (threads <= 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      threads = hw > 0 ? static_cast<int>(hw) : 1;
    }
    workers_.reserve(static_cast<size_t>(threads));
    for (int i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }
}

IoScheduler::~IoScheduler() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
#if defined(ODBGC_HAVE_LIBURING)
  if (ring_ != nullptr) {
    auto* ring = static_cast<struct io_uring*>(ring_);
    io_uring_queue_exit(ring);
    delete ring;
  }
#endif
}

void IoScheduler::SubmitWrite(int fd, uint64_t offset,
                              std::span<const std::byte> data) {
  Job job;
  job.fd = fd;
  job.offset = offset;
  job.is_write = true;
  job.write_data = data;
  Enqueue(job);
}

void IoScheduler::SubmitRead(int fd, uint64_t offset,
                             std::span<std::byte> out) {
  Job job;
  job.fd = fd;
  job.offset = offset;
  job.is_write = false;
  job.read_data = out;
  Enqueue(job);
}

void IoScheduler::Enqueue(const Job& job) {
  std::unique_lock<std::mutex> lock(mutex_);
  jobs_.push_back(job);
  // The draining thread runs every job no worker has claimed, so a
  // batch's first job wakes no worker: a one-page transfer normally costs
  // no thread hand-off.
  const bool wake = backend_ == IoBackend::kThreadPool && jobs_.size() > 1;
  lock.unlock();
  if (wake) work_available_.notify_one();
}

Status IoScheduler::Execute(const Job& job) {
  if (job.is_write) return WriteFully(job.fd, job.offset, job.write_data);
  return ReadFully(job.fd, job.offset, job.read_data);
}

void IoScheduler::RunNextJob(std::unique_lock<std::mutex>& lock) {
  const size_t index = next_job_++;
  // Copy the descriptor: a producer may push_back (and reallocate jobs_)
  // while this job executes. The spans still point at caller buffers,
  // which stay valid until Drain returns.
  const Job claimed = jobs_[index];
  lock.unlock();
  // Execute outside the lock: jobs cover disjoint file ranges, so the
  // threads running them never contend on data.
  Status status = Execute(claimed);
  lock.lock();
  jobs_[index].status = std::move(status);
  ++jobs_done_;
}

void IoScheduler::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_available_.wait(
        lock, [this] { return shutdown_ || next_job_ < jobs_.size(); });
    if (shutdown_) return;
    RunNextJob(lock);
    if (jobs_done_ == jobs_.size()) batch_done_.notify_all();
  }
}

#if defined(ODBGC_HAVE_LIBURING)
Status IoScheduler::DrainUring() {
  auto* ring = static_cast<struct io_uring*>(ring_);
  size_t submitted = 0;
  size_t completed = 0;
  while (completed < jobs_.size()) {
    // Keep the submission queue topped up.
    while (submitted < jobs_.size()) {
      struct io_uring_sqe* sqe = io_uring_get_sqe(ring);
      if (sqe == nullptr) break;
      Job& job = jobs_[submitted];
      if (job.is_write) {
        io_uring_prep_write(sqe, job.fd, job.write_data.data(),
                            job.write_data.size(),
                            static_cast<off_t>(job.offset));
      } else {
        io_uring_prep_read(sqe, job.fd, job.read_data.data(),
                           job.read_data.size(),
                           static_cast<off_t>(job.offset));
      }
      io_uring_sqe_set_data64(sqe, submitted);
      ++submitted;
    }
    const int rc = io_uring_submit_and_wait(ring, 1);
    if (rc < 0 && rc != -EINTR) return ErrnoError("io_uring_submit", -rc);
    struct io_uring_cqe* cqe = nullptr;
    while (io_uring_peek_cqe(ring, &cqe) == 0) {
      Job& job = jobs_[io_uring_cqe_get_data64(cqe)];
      const int res = cqe->res;
      io_uring_cqe_seen(ring, cqe);
      ++completed;
      if (res < 0) {
        job.status = ErrnoError(job.is_write ? "uring write" : "uring read",
                                -res);
      } else {
        // Finish short transfers (and zero-fill read tails) with the
        // portable path; simplicity over resubmission plumbing.
        const size_t n = static_cast<size_t>(res);
        if (job.is_write && n < job.write_data.size()) {
          job.status = WriteFully(job.fd, job.offset + n,
                                  job.write_data.subspan(n));
        } else if (!job.is_write && n < job.read_data.size()) {
          job.status =
              ReadFully(job.fd, job.offset + n, job.read_data.subspan(n));
        }
      }
    }
  }
  return Status::Ok();
}
#endif

Status IoScheduler::Drain() {
#if defined(ODBGC_HAVE_LIBURING)
  if (backend_ == IoBackend::kIoUring) {
    if (!jobs_.empty()) {
      const Status ring_status = DrainUring();
      if (!ring_status.ok()) {
        jobs_completed_ += jobs_.size();
        jobs_.clear();
        return ring_status;
      }
    }
    Status first_error = Status::Ok();
    for (const Job& job : jobs_) {
      if (!job.status.ok()) {
        first_error = job.status;
        break;
      }
    }
    jobs_completed_ += jobs_.size();
    jobs_.clear();
    return first_error;
  }
#endif
  std::unique_lock<std::mutex> lock(mutex_);
  // Caller-runs: this thread executes every job no worker has claimed,
  // then waits only for the ones workers are still running.
  while (next_job_ < jobs_.size()) RunNextJob(lock);
  batch_done_.wait(lock, [this] { return jobs_done_ == jobs_.size(); });
  // Completion order is arbitrary; report the first failure in
  // submission order so the surfaced error is deterministic.
  Status first_error = Status::Ok();
  for (const Job& job : jobs_) {
    if (!job.status.ok()) {
      first_error = job.status;
      break;
    }
  }
  jobs_completed_ += jobs_.size();
  jobs_.clear();
  next_job_ = 0;
  jobs_done_ = 0;
  return first_error;
}

}  // namespace odbgc
