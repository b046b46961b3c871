#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>

#include "common/cancel.h"
#include "common/macros.h"

namespace lakeharbor {

/// Counting semaphore with a runtime-chosen permit count (std::counting_
/// semaphore fixes the maximum at compile time). Models the scheduler's
/// per-node disk tokens.
class Semaphore {
 public:
  explicit Semaphore(size_t permits) : permits_(permits) {}
  LH_DISALLOW_COPY_AND_ASSIGN(Semaphore);

  void Acquire() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return permits_ > 0; });
    --permits_;
  }

  /// Cancellable bulk acquire of `n` permits (all-or-nothing). Blocks until
  /// the permits are available or `cancel` fires; returns true on success,
  /// false when cancelled without taking any permits. Admission queueing
  /// uses this so a job whose deadline expires while waiting for disk slots
  /// leaves the queue promptly instead of grabbing slots it can't use. The
  /// wait re-checks the token on a coarse poll (≤1ms) as a backstop, so
  /// cancellation never needs to know which semaphore a waiter sits on
  /// (Cancel() wakes the token's own cv, not ours).
  bool Acquire(size_t n, const CancelToken* cancel) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (cancel != nullptr && cancel->cancelled()) return false;
      if (permits_ >= n) {
        permits_ -= n;
        return true;
      }
      if (cancel == nullptr) {
        cv_.wait(lock, [&] { return permits_ >= n; });
      } else {
        cv_.wait_for(lock, std::chrono::milliseconds(1),
                     [&] { return permits_ >= n; });
      }
    }
  }

  bool TryAcquire() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (permits_ == 0) return false;
    --permits_;
    return true;
  }

  /// All-or-nothing non-blocking bulk acquire.
  bool TryAcquire(size_t n) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (permits_ < n) return false;
    permits_ -= n;
    return true;
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++permits_;
    }
    cv_.notify_one();
  }

  /// Bulk release of `n` permits in one lock round-trip, with notify_all so
  /// every waiter (including bulk waiters needing more than one permit)
  /// re-evaluates — returning a cancelled job's disk slots wakes the whole
  /// admission queue at once instead of one waiter per permit.
  void Release(size_t n) {
    if (n == 0) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      permits_ += n;
    }
    cv_.notify_all();
  }

  size_t available() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return permits_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  size_t permits_;
};

/// RAII permit holder.
class SemaphoreGuard {
 public:
  explicit SemaphoreGuard(Semaphore& sem) : sem_(sem) { sem_.Acquire(); }
  ~SemaphoreGuard() { sem_.Release(); }
  LH_DISALLOW_COPY_AND_ASSIGN(SemaphoreGuard);

 private:
  Semaphore& sem_;
};

}  // namespace lakeharbor
