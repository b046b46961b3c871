#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
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
  std::deque<Completion> buffered_;  // pull mode only; guarded by mutex_
};

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
