#pragma once

#include <atomic>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "common/macros.h"

namespace lakeharbor {

/// One run queue of a work-stealing pool (Blumofe & Leiserson, "Scheduling
/// Multithreaded Computations by Work Stealing", JACM 1999): a deque under
/// a mutex, with its size mirrored in an atomic so that a worker polling
/// the queue, or scanning its peers for work to steal, passes an empty one
/// without taking its lock.
///
/// The owning worker pushes at the back and pops there too, newest first,
/// so it follows the subtree it just made; thieves, and the consumers of a
/// queue that other threads feed, take from the front, oldest first. The
/// mutex is uncontended except while a thief takes from the queue.
///
/// The size is stored and loaded seq_cst. A consumer about to sleep first
/// announces itself with a seq_cst write, then checks `empty()`; a producer
/// pushes, then reads the announcement. One of the two sees the other, so
/// no push is missed by a consumer that went to sleep.
///
/// Close() makes every later Push fail; what was queued before stays
/// poppable.
template <typename T>
class RunQueue {
 public:
  RunQueue() = default;
  LH_DISALLOW_COPY_AND_ASSIGN(RunQueue);

  /// Appends `value` at the back. Returns false, dropping it, once closed.
  bool Push(T value) {
    return Push(std::move(value), [] {});
  }

  /// Push that also calls `then()` under the lock, after `value` is in.
  /// A producer its consumers cannot join (a device timer thread) wakes
  /// them from there: once it releases the lock it touches nothing, so the
  /// consumer that pops `value` may at once destroy the queue's owner.
  /// `then` is not called when the queue is closed.
  template <typename Then>
  bool Push(T value, Then&& then) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return false;
    items_.push_back(std::move(value));
    size_.store(items_.size());
    then();
    return true;
  }

  /// The newest element (the owner's end), or nullopt when empty.
  std::optional<T> PopBack() { return Pop(/*newest=*/true); }

  /// The oldest element (a thief's, or a FIFO consumer's, end).
  std::optional<T> PopFront() { return Pop(/*newest=*/false); }

  /// Lock-free emptiness hint, exact whenever no push or pop is under way.
  bool empty() const { return size_.load() == 0; }

  void Close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

 private:
  std::optional<T> Pop(bool newest) {
    if (empty()) return std::nullopt;
    std::lock_guard<std::mutex> lock(mutex_);
    if (items_.empty()) return std::nullopt;
    std::optional<T> value;
    if (newest) {
      value.emplace(std::move(items_.back()));
      items_.pop_back();
    } else {
      value.emplace(std::move(items_.front()));
      items_.pop_front();
    }
    size_.store(items_.size());
    return value;
  }

  mutable std::mutex mutex_;
  std::deque<T> items_;  // guarded by mutex_
  bool closed_ = false;  // guarded by mutex_
  std::atomic<size_t> size_{0};
};

}  // namespace lakeharbor
