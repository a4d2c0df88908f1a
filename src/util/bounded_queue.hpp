// Bounded blocking FIFO: a std::deque guarded by one mutex, with one
// condition variable per direction.  It is the batch hand-off of the async
// audit path (api::AuditEngine), which moves one batch per audit_async
// call: a plain lock costs nothing next to the inspection behind it, and
// idle consumers sleep instead of polling.
//
// Closing: close() refuses further pushes and wakes every waiter; pop()
// keeps handing out what is already queued and reports closed only once
// the queue is empty.  Owners drain on destruction by closing and then
// joining their consumers: every item pushed before close() is popped
// exactly once.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <utility>

#include "util/thread_annotations.hpp"

namespace bprom::util {

template <typename T>
class BoundedQueue {
 public:
  /// Holds at most `capacity` items; 0 is taken as 1.
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(std::max<std::size_t>(1, capacity)) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Enqueue, blocking while the queue is full (backpressure).  Returns
  /// false once the queue is closed, leaving `value` untouched.
  bool push(T&& value) {
    MutexLock lock(mu_);
    while (!closed_ && items_.size() >= capacity_) not_full_.wait(mu_);
    if (closed_) return false;
    items_.push_back(std::move(value));
    not_empty_.notify_one();
    return true;
  }

  /// Dequeue into `out`, blocking while the queue is empty.  Returns false
  /// only once the queue is closed and drained.
  bool pop(T& out) {
    MutexLock lock(mu_);
    while (!closed_ && items_.empty()) not_empty_.wait(mu_);
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return true;
  }

  /// Refuse further pushes and wake every blocked producer and consumer.
  void close() {
    MutexLock lock(mu_);
    closed_ = true;
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  [[nodiscard]] std::size_t size() const {
    MutexLock lock(mu_);
    return items_.size();
  }

 private:
  const std::size_t capacity_;
  mutable Mutex mu_;
  CondVar not_full_;
  CondVar not_empty_;
  std::deque<T> items_ BPROM_GUARDED_BY(mu_);
  bool closed_ BPROM_GUARDED_BY(mu_) = false;
};

}  // namespace bprom::util
