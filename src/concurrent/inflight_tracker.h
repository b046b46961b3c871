#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <utility>

#include "common/macros.h"

namespace lakeharbor {

/// Tracks outstanding fine-grained tasks so the SMPE executor can detect
/// quiescence ("until all tasks are finished" in Algorithm 1). A task in
/// flight must be registered *before* it is enqueued, and a task spawning
/// children registers the children before finishing itself, so the count can
/// only reach zero when the whole task DAG has drained.
///
/// Lock-free above zero: Add is a relaxed fetch_add, and Done decrements
/// with a CAS that only succeeds while the result stays positive. The
/// decrement that reaches zero takes the mutex instead, so zero is only ever
/// produced under the mutex — which is what lets AwaitZero's caller (and the
/// NotifyOnZero callback) destroy the tracker the moment it sees zero: the
/// thread that produced it has notified and let go of the mutex by then, and
/// every other Done finished with the tracker at its successful decrement.
class InflightTracker {
 public:
  InflightTracker() = default;
  LH_DISALLOW_COPY_AND_ASSIGN(InflightTracker);

  void Add(int64_t n = 1) { count_.fetch_add(n, std::memory_order_relaxed); }

  /// Every decrement is an acq_rel RMW, so whatever a task wrote before its
  /// Done happens-before the thread that observes zero.
  void Done(int64_t n = 1) {
    int64_t seen = count_.load(std::memory_order_relaxed);
    while (seen > n) {
      if (count_.compare_exchange_weak(seen, seen - n,
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
        return;
      }
    }
    std::function<void()> on_zero;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const int64_t left = count_.fetch_sub(n, std::memory_order_acq_rel) - n;
      LH_CHECK_MSG(left >= 0, "InflightTracker underflow");
      if (left != 0) return;  // an Add raced in after the CAS loop gave up
      // Notify while still holding the mutex: the waiter in AwaitZero() often
      // destroys this tracker as soon as it observes zero, and it cannot
      // re-acquire the mutex (and return) until this thread has finished
      // notifying and released it. Unlock-then-notify would let destruction
      // race the notify_all call on the dead condition variable.
      cv_.notify_all();
      on_zero = std::move(on_zero_);
      on_zero_ = nullptr;
    }
    // Invoke the one-shot completion callback strictly AFTER unlocking and
    // without touching any member afterwards: the callback runs on whichever
    // thread drove the count to zero (an executor worker delivering the last
    // completion) and routinely finalizes — and thereby destroys — the run
    // state that owns this tracker.
    if (on_zero) on_zero();
  }

  /// Blocks until the in-flight count reaches zero. The count is read under
  /// the mutex that the zero-producing Done holds while it notifies.
  void AwaitZero() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return count_.load(std::memory_order_acquire) == 0; });
  }

  /// Completion-callback mode for engines that must not park a thread on
  /// AwaitZero: `fn` is invoked exactly once, on the thread whose Done()
  /// drives the count to zero — or inline on the caller when the count is
  /// already zero. One callback may be armed at a time; arming while the
  /// count is held above zero by a setup guard (Add before, Done after) is
  /// the race-free pattern. The callback may destroy the tracker.
  void NotifyOnZero(std::function<void()> fn) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      LH_CHECK_MSG(!on_zero_, "NotifyOnZero: a callback is already armed");
      if (count_.load(std::memory_order_acquire) != 0) {
        on_zero_ = std::move(fn);
        return;
      }
    }
    fn();
  }

  int64_t count() const { return count_.load(std::memory_order_acquire); }

 private:
  std::atomic<int64_t> count_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  std::function<void()> on_zero_;  // guarded by mutex_
};

}  // namespace lakeharbor
