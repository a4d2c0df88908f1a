#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>

#include "util/env.hpp"

namespace bprom::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto fut = packaged.get_future();
  {
    MutexLock lock(mu_);
    queue_.push(std::move(packaged));
  }
  cv_.notify_one();
  return fut;
}

bool ThreadPool::pop_locked(std::packaged_task<void()>& out) {
  if (queue_.empty()) return false;
  out = std::move(queue_.front());
  queue_.pop();
  return true;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) cv_.wait(mu_);
      if (!pop_locked(task)) return;  // stop_ set and queue drained
    }
    task();
  }
}

bool ThreadPool::try_run_one() {
  std::packaged_task<void()> task;
  {
    MutexLock lock(mu_);
    if (!pop_locked(task)) return false;
  }
  task();
  return true;
}

namespace {
// Innermost live ScopedPoolOverride target; atomic only so default_pool()
// reads race-free against workers that consult it mid-flight.
std::atomic<ThreadPool*> g_pool_override{nullptr};
}  // namespace

ScopedPoolOverride::ScopedPoolOverride(ThreadPool& pool)
    : previous_(g_pool_override.exchange(&pool)) {}

ScopedPoolOverride::~ScopedPoolOverride() {
  g_pool_override.store(previous_);
}

ThreadPool& default_pool() {
  if (ThreadPool* override = g_pool_override.load()) return *override;
  // Values that cannot be meant literally (e.g. BPROM_THREADS=-1 wrapping to
  // 2^64-1 through strtoull) fall back to hardware concurrency instead of
  // exhausting the process with thread spawns.
  static ThreadPool process_pool([] {
    const std::size_t requested = env_size("BPROM_THREADS", 0);
    return requested <= 1024 ? requested : std::size_t{0};
  }());
  return process_pool;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  ThreadPool& pool = default_pool();

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  const auto run_shard = [&] {
    for (;;) {
      // relaxed: advisory early-exit flag only — a stale false merely runs
      // one more index; the exception itself propagates through the future.
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      try {
        body(i);
      } catch (...) {
        // relaxed: see the load above — the flag carries no data, the
        // future's exception state is the synchronized channel.
        failed.store(true, std::memory_order_relaxed);
        throw;
      }
    }
  };

  // The caller claims indices too, so even if every helper stays stuck in
  // the queue (e.g. all workers blocked in nested parallel_for waits) the
  // loop always completes.  Caller + helpers never exceed the pool size, so
  // a 1-thread pool really is a serial inline loop.
  const std::size_t helpers = std::min(n - 1, pool.size() - 1);
  std::vector<std::future<void>> futures;
  futures.reserve(helpers);
  for (std::size_t s = 0; s < helpers; ++s) {
    futures.push_back(pool.submit(run_shard));
  }

  std::exception_ptr error;
  try {
    run_shard();
  } catch (...) {
    error = std::current_exception();
  }

  for (auto& f : futures) {
    // While a helper is still queued, drain queued tasks on this thread
    // instead of blocking — a worker running a nested parallel_for may be
    // waiting for exactly one of them.  Once the queue is empty every
    // submitted helper is running (or done) on some thread, so a blocking
    // get() terminates.
    while (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready &&
           pool.try_run_one()) {
    }
    try {
      f.get();
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace bprom::util
