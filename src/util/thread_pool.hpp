// Minimal fixed-size thread pool used to train shadow-model populations and
// suspicious-model cohorts in parallel.
//
// Work items are type-erased closures; parallel_for provides the common
// index-sharded pattern with exception propagation to the caller, always on
// default_pool().
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace bprom::util {

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; the future reports completion / exception.
  std::future<void> submit(std::function<void()> task);

  /// Pop and run one queued task on the calling thread.  Returns false when
  /// the queue is empty.  Lets blocked waiters help drain the queue, which
  /// makes nested parallel_for calls from worker threads deadlock-free.
  bool try_run_one();

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

 private:
  void worker_loop();

  /// Dequeue the front task into `out`; false when the queue is empty.
  bool pop_locked(std::packaged_task<void()>& out) BPROM_REQUIRES(mu_);

  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar cv_;
  std::queue<std::packaged_task<void()>> queue_ BPROM_GUARDED_BY(mu_);
  bool stop_ BPROM_GUARDED_BY(mu_) = false;
};

/// Run body(i) for i in [0, n) across default_pool().  The calling thread
/// participates in the work, so nested calls from pool workers cannot
/// deadlock, and a 1-thread pool degrades to a serial loop.  Each index is
/// executed exactly once with disjoint outputs left to the body, so results
/// are independent of thread count whenever the body is deterministic per
/// index.  Rethrows the first exception encountered; once a body throws,
/// remaining indices are abandoned.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

/// The pool every parallel_for runs on: the pool installed by the innermost
/// live ScopedPoolOverride, or else the process-wide pool, built on first
/// use and sized by the BPROM_THREADS environment variable (unset, 0 or
/// above 1024 means hardware_concurrency).
ThreadPool& default_pool();

/// Reroute every parallel_for in the process to `pool` for the lifetime of
/// this object — the one way to pin the pool a computation runs on.  The
/// override is process-wide, so it reaches every nested level at once (an
/// inspection's prompt-ensemble members, each optimizer generation's
/// candidate queries, the conv GEMMs inside every query) and also the
/// batches api::AuditEngine's serve workers audit for audit_async().  The
/// determinism tests run one code path under 1-, 2-, 4- and 8-thread pools
/// this way.  Overrides nest (destruction restores the previous override).
/// Install and remove only from the thread that owns the parallel region,
/// while no parallel_for work is in flight.
class ScopedPoolOverride {
 public:
  explicit ScopedPoolOverride(ThreadPool& pool);
  ~ScopedPoolOverride();

  ScopedPoolOverride(const ScopedPoolOverride&) = delete;
  ScopedPoolOverride& operator=(const ScopedPoolOverride&) = delete;

 private:
  ThreadPool* previous_;
};

}  // namespace bprom::util
