#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/macros.h"
#include "common/status.h"
#include "sim/fault.h"

namespace lakeharbor::sim {

/// One finished asynchronous device operation: the submitter's opaque tag
/// plus the operation's final status. The cost model (service time, counters,
/// fault decisions) is charged by the device exactly as the blocking path
/// would — a completion only says "your charge landed".
///
/// `outcome` carries the silent-corruption verdict of a successful read
/// (see sim::ReadOutcome): drawn once at submission from the same seeded
/// stream as the blocking path, delivered with the completion so the SMPE
/// engine sees bit-identical rot to a blocking reader.
struct Completion {
  uint64_t tag = 0;
  Status status;
  ReadOutcome outcome;
};

/// Delivery channel for asynchronous device completions. One queue per
/// logical consumer (the executors keep one per node, mirroring the
/// "per-node completion queue" in the design).
///
/// Two delivery modes, fixed at construction:
///  - Listener mode (constructed with a listener): each Push invokes the
///    listener on the delivering thread — the device timer thread, or the
///    submitting thread when the device completes inline (timing disabled /
///    immediate fault). The listener is fixed for the queue's life, so Push
///    takes no lock and copies nothing; the listener must itself be safe to
///    call from several threads at once. Listeners must only hand the
///    completion off (park or enqueue a continuation); running
///    continuations inline would recurse into the device from its own timer
///    thread.
///  - Pull mode (default-constructed): completions buffer internally, under
///    a mutex, until `TryPop`. The deterministic replay driver uses this to
///    choose completion delivery order from a seeded RNG.
class CompletionQueue {
 public:
  using Listener = std::function<void(const Completion&)>;

  CompletionQueue() = default;
  explicit CompletionQueue(Listener listener)
      : listener_(std::move(listener)) {}
  LH_DISALLOW_COPY_AND_ASSIGN(CompletionQueue);

  void Push(Completion c) {
    if (listener_) {
      listener_(c);
      return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    buffered_.push_back(std::move(c));
  }

  std::optional<Completion> TryPop() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (buffered_.empty()) return std::nullopt;
    Completion c = std::move(buffered_.front());
    buffered_.pop_front();
    return c;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return buffered_.size();
  }

  bool empty() const { return size() == 0; }

 private:
  const Listener listener_;  // empty in pull mode
  mutable std::mutex mutex_;
  /// Pull mode only; guarded by mutex_. A std::list, because a
  /// default-constructed one allocates nothing (a std::deque allocates its
  /// map), so a listener-mode queue on a caller's stack costs no allocation.
  std::list<Completion> buffered_;
};

/// A blocking caller's side of one submission: pass `queue()` to a Submit*
/// call, then `Wait()` for the completion it delivers. Every blocking device
/// call is built this way (submit, then wait for the timer thread to end
/// the wait), so a blocked thread holds no device state and each device
/// has one admission path. The thread that builds the latch must be the one
/// that waits on it.
///
/// A completion delivered inline, on that thread before it waits (an
/// untimed charge), costs a plain store: no atomic read-modify-write, no
/// lock, no allocation. Only a waiter that finds nothing there builds its
/// mutex and condition variable and sleeps; the arrival then wakes it
/// under the lock, because the waiter destroys the latch as soon as Wait
/// returns.
class CompletionLatch {
 public:
  CompletionLatch() : cq_([this](const Completion& c) { Arrive(c); }) {}
  LH_DISALLOW_COPY_AND_ASSIGN(CompletionLatch);

  CompletionQueue* queue() { return &cq_; }

  /// The delivered completion (status and read outcome), once it has
  /// arrived.
  Completion Wait() {
    if (state_.load(std::memory_order_acquire) != kArrived) {
      Sleeper& sleeper = sleeper_.emplace();
      std::unique_lock<std::mutex> lock(sleeper.mutex);
      uint8_t idle = kIdle;
      // Failing, the arrival came first and will not touch the latch again.
      if (state_.compare_exchange_strong(idle, kSleeping,
                                         std::memory_order_acq_rel)) {
        sleeper.cv.wait(lock, [&] { return sleeper.woken; });
      }
    }
    return std::move(completion_);
  }

 private:
  static constexpr uint8_t kIdle = 0;
  static constexpr uint8_t kArrived = 1;
  static constexpr uint8_t kSleeping = 2;  // a waiter is, or is about to be

  struct Sleeper {
    std::mutex mutex;
    std::condition_variable cv;
    bool woken = false;  // guarded by mutex
  };

  void Arrive(const Completion& c) {
    completion_ = c;
    if (std::this_thread::get_id() == waiter_) {
      // Inline: the waiter is this thread and has not waited yet.
      state_.store(kArrived, std::memory_order_relaxed);
      return;
    }
    if (state_.exchange(kArrived, std::memory_order_acq_rel) != kSleeping) {
      return;  // no waiter yet: Wait will see kArrived and not sleep
    }
    Sleeper& sleeper = *sleeper_;  // built before the waiter's exchange
    std::lock_guard<std::mutex> lock(sleeper.mutex);
    sleeper.woken = true;
    sleeper.cv.notify_one();
  }

  const std::thread::id waiter_ = std::this_thread::get_id();
  std::atomic<uint8_t> state_{kIdle};
  Completion completion_;  // written before state_ becomes kArrived
  std::optional<Sleeper> sleeper_;
  CompletionQueue cq_;
};

/// The blocking form of a Submit* call: run `submit` on a latch's queue
/// and wait for the one completion it delivers. A read's corruption
/// verdict is copied to `outcome` (when non-null). The blocking device,
/// network and cluster read calls are each one of these.
template <typename Submit>
Status SubmitAndWait(const Submit& submit, ReadOutcome* outcome = nullptr) {
  CompletionLatch latch;
  submit(latch.queue());
  Completion done = latch.Wait();
  if (outcome != nullptr && done.outcome.corrupted) *outcome = done.outcome;
  return std::move(done.status);
}

/// Callback-as-tag convention used by every layer above the raw devices:
/// the submitter packages its continuation as a heap-allocated function
/// over the full Completion and passes the pointer as the tag; whoever
/// drains the completion (an executor worker, or the deterministic driver)
/// calls DeliverCallbackTag exactly once, which invokes and frees it.
///
/// Two makers share the one tag type: MakeCompletionCallbackTag for callers
/// that need the ReadOutcome (the integrity layer's read paths), and the
/// original MakeCallbackTag for status-only continuations.
using CompletionCallback = std::function<void(const Completion&)>;

inline uint64_t MakeCompletionCallbackTag(CompletionCallback done) {
  auto* fn = new CompletionCallback(std::move(done));
  return reinterpret_cast<uint64_t>(fn);
}

inline uint64_t MakeCallbackTag(std::function<void(Status)> done) {
  return MakeCompletionCallbackTag(
      [done = std::move(done)](const Completion& c) { done(c.status); });
}

inline void DeliverCallbackTag(const Completion& c) {
  auto* fn = reinterpret_cast<CompletionCallback*>(c.tag);
  LH_CHECK_MSG(fn != nullptr, "completion carried a null callback tag");
  (*fn)(c);
  delete fn;
}

}  // namespace lakeharbor::sim
