#pragma once

#include <functional>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "concurrent/mpmc_queue.h"

namespace lakeharbor {

/// Fixed-size worker pool. ReDe "manages threads in a thread pool and reuses
/// them instead of creating them every time" (§III-C); the pool size is the
/// SMPE parallelism knob (paper default: 1000).
///
/// Tasks must not throw. Submit after Shutdown is rejected (returns false).
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads) {
    LH_CHECK(num_threads > 0);
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() { Shutdown(); }
  LH_DISALLOW_COPY_AND_ASSIGN(ThreadPool);

  /// Enqueue a task; returns false after Shutdown.
  bool Submit(std::function<void()> task) {
    return queue_.Push(std::move(task));
  }

  /// Drain remaining tasks and join all workers. Idempotent.
  void Shutdown() {
    queue_.Close();
    for (auto& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
  }

  size_t num_threads() const { return workers_.size(); }
  size_t queued() const { return queue_.size(); }

 private:
  void WorkerLoop() {
    while (auto task = queue_.Pop()) {
      (*task)();
    }
  }

  MpmcQueue<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
};

}  // namespace lakeharbor
