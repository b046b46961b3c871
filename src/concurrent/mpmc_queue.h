#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

#include "common/macros.h"

namespace lakeharbor {

/// Multi-producer multi-consumer blocking queue. This is the inter-stage
/// queue of the SMPE execution model (Fig 6 of the paper): the output queue
/// of one stage is the input queue of the next.
///
/// Close() wakes all blocked consumers; after close, Pop drains remaining
/// elements and then returns nullopt. Push after close is a silent no-op
/// (executors close the queue only once all producers are finished, so a
/// late push indicates shutdown and its element is intentionally dropped).
///
/// All condition-variable notifies happen while holding the lock: the
/// consumer that pops the final element may cause the queue to be
/// destroyed, and an unlocked notify would let that destruction race a
/// producer still inside the notify call. Under the lock, the consumer
/// cannot re-acquire the mutex (and therefore cannot reach the destructor)
/// until the notifier has left. (The async engine's workers take their work
/// from RunQueues, not from this queue; its shared queue, whose producers
/// include device timer threads the executor cannot join, wakes a sleeping
/// worker under the queue's lock for the same reason.)
template <typename T>
class MpmcQueue {
 public:
  /// capacity == 0 means unbounded.
  explicit MpmcQueue(size_t capacity = 0) : capacity_(capacity) {}
  LH_DISALLOW_COPY_AND_ASSIGN(MpmcQueue);

  /// Blocks while the queue is full (bounded mode). Returns false when the
  /// queue was closed and the element was dropped.
  bool Push(T value) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [&] {
      return closed_ || capacity_ == 0 || items_.size() < capacity_;
    });
    if (closed_) return false;
    items_.push_back(std::move(value));
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; returns false when full or closed.
  bool TryPush(T value) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return false;
    if (capacity_ != 0 && items_.size() >= capacity_) return false;
    items_.push_back(std::move(value));
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an element is available or the queue is closed and empty.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;  // closed and drained
    T value = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return value;
  }

  /// Non-blocking pop.
  std::optional<T> TryPop() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return value;
  }

  /// Closes the queue: consumers drain what is left, producers are rejected.
  void Close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  bool empty() const { return size() == 0; }

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace lakeharbor
