#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "common/clock.h"
#include "common/macros.h"

#ifdef __linux__
#include <sys/prctl.h>
#endif

namespace lakeharbor {

/// Deadline-ordered one-shot timers backed by ONE lazily-started thread —
/// the replacement for "park a thread per sleep". Every timed wait of the
/// simulation goes through one: simulated device and network service
/// completions (blocking device calls included, which submit and wait for
/// the completion), retry backoffs, hedge deadlines, and job deadline
/// watchdogs all become one map entry each.
///
/// Precision: on Linux the thread sets its own timer slack to 1 ns when it
/// starts. With the default 50 us slack the kernel may defer every wake-up
/// by up to that much, which overcharges each modeled device access (a
/// 30 us network hop observed as ~90 us). The thread sleeps until the
/// earliest deadline and is woken early only when an entry becomes the new
/// earliest deadline.
///
/// Closures run on the timer thread and must therefore be cheap and
/// non-blocking: the convention throughout the codebase is that a timer
/// closure only delivers a completion or enqueues a continuation, never
/// executes one. Closures must also be safe to invoke "late" (after the
/// logical operation was abandoned) — anything they touch is kept alive by
/// shared ownership, and abandoned wake-ups are level-triggered no-ops.
///
/// Destruction stops the thread and DROPS closures that have not fired.
/// Subsystems that must not lose a completion (the simulated devices) keep
/// the service alive until their outstanding operations drain, which the
/// executors guarantee by awaiting in-flight counts before teardown.
class TimerService {
 public:
  TimerService() = default;
  LH_DISALLOW_COPY_AND_ASSIGN(TimerService);

  ~TimerService() {
    std::thread to_join;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
      to_join = std::move(thread_);
    }
    cv_.notify_all();
    if (to_join.joinable()) to_join.join();
  }

  /// Run `fn` on the timer thread no earlier than `delay_us` microseconds
  /// from now (delay 0 = as soon as the thread gets to it). Entries with
  /// equal deadlines fire in registration order.
  void After(uint64_t delay_us, std::function<void()> fn) {
    const int64_t due_us = NowMicros() + static_cast<int64_t>(delay_us);
    bool earliest = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      LH_CHECK_MSG(!stop_, "TimerService::After after shutdown");
      // multimap: deadline-ordered, duplicates keep insertion order.
      auto entry = pending_.emplace(due_us, std::move(fn));
      earliest = entry == pending_.begin();
      if (!started_) {
        started_ = true;
        thread_ = std::thread([this] { Loop(); });
      }
    }
    // The thread sleeps until the earliest deadline (or indefinitely on an
    // empty map, after which the new entry is the earliest): only a new
    // earliest entry changes when it must wake.
    if (earliest) cv_.notify_one();
  }

  size_t pending() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return pending_.size();
  }

 private:
  void Loop() {
#ifdef __linux__
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      if (pending_.empty()) {
        cv_.wait(lock, [&] { return stop_ || !pending_.empty(); });
        continue;
      }
      const int64_t due_us = pending_.begin()->first;
      const int64_t now_us = NowMicros();
      if (due_us > now_us) {
        cv_.wait_for(lock, std::chrono::microseconds(due_us - now_us));
        continue;  // re-evaluate: an earlier entry may have been added
      }
      std::function<void()> fn = std::move(pending_.begin()->second);
      pending_.erase(pending_.begin());
      lock.unlock();
      fn();
      lock.lock();
    }
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::multimap<int64_t, std::function<void()>> pending_;
  std::thread thread_;
  bool started_ = false;
  bool stop_ = false;
};

}  // namespace lakeharbor
