// Minimal fixed-size thread pool used to train shadow-model populations and
// suspicious-model cohorts in parallel.
//
// Work items are type-erased closures; parallel_for provides the common
// index-sharded pattern with exception propagation to the caller.
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

/// Run body(i) for i in [0, n) across the given pool (defaults to
/// default_pool()).  The calling thread participates in the work, so nested
/// calls from pool workers cannot deadlock, and a 1-thread pool degrades to a
/// serial loop.  Each index is executed exactly once with disjoint outputs
/// left to the body, so results are independent of thread count whenever the
/// body is deterministic per index.  Rethrows the first exception
/// encountered; once a body throws, remaining indices are abandoned.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  ThreadPool* pool = nullptr);

/// Process-wide default pool (lazily constructed).  Sized by the
/// BPROM_THREADS environment variable; unset or 0 means
/// hardware_concurrency.
ThreadPool& global_pool();

/// The pool parallel_for uses when no explicit pool is passed: the pool
/// installed by the innermost live ScopedPoolOverride, or the global pool
/// when none is installed.
ThreadPool& default_pool();

/// Reroute parallel_for's implicit pool for the lifetime of this object.
/// Lets one process run the same code path under several thread counts —
/// the determinism tests drive layer backward passes and CMA-ES candidate
/// evaluation with 1-, 2-, and 8-thread pools this way.  Overrides nest
/// (destruction restores the previous override).  Install and remove only
/// from the thread that owns the parallel region, while no implicit-pool
/// work is in flight.
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
