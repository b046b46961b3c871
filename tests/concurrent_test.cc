#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "concurrent/inflight_tracker.h"
#include "concurrent/mpmc_queue.h"
#include "concurrent/run_queue.h"
#include "concurrent/semaphore.h"
#include "concurrent/thread_pool.h"
#include "concurrent/timer_service.h"
#include "sim/completion_queue.h"

namespace lakeharbor {
namespace {

TEST(MpmcQueue, FifoSingleThread) {
  MpmcQueue<int> q;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.Push(i));
  for (int i = 0; i < 10; ++i) {
    auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_TRUE(q.empty());
}

TEST(MpmcQueue, PopDrainsAfterClose) {
  MpmcQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Close();
  EXPECT_FALSE(q.Push(3));  // rejected
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_EQ(*q.Pop(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(MpmcQueue, CloseWakesBlockedConsumer) {
  MpmcQueue<int> q;
  std::thread consumer([&] {
    auto v = q.Pop();
    EXPECT_FALSE(v.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  consumer.join();
}

TEST(MpmcQueue, BoundedBlocksProducerUntilSpace) {
  MpmcQueue<int> q(1);
  EXPECT_TRUE(q.Push(1));
  EXPECT_FALSE(q.TryPush(2));
  std::thread producer([&] { EXPECT_TRUE(q.Push(2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(*q.Pop(), 1);
  producer.join();
  EXPECT_EQ(*q.Pop(), 2);
}

TEST(MpmcQueue, TryPopNonBlocking) {
  MpmcQueue<int> q;
  EXPECT_FALSE(q.TryPop().has_value());
  q.Push(9);
  EXPECT_EQ(*q.TryPop(), 9);
}

TEST(MpmcQueue, ConcurrentProducersConsumersDeliverEverythingOnce) {
  MpmcQueue<int> q;
  constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 2000;
  std::atomic<int64_t> sum{0};
  std::atomic<int> consumed{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) q.Push(p * kPerProducer + i);
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.Pop()) {
        sum.fetch_add(*v);
        consumed.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  q.Close();
  for (int c = 0; c < kConsumers; ++c) threads[kProducers + c].join();
  const int total = kProducers * kPerProducer;
  EXPECT_EQ(consumed.load(), total);
  EXPECT_EQ(sum.load(), static_cast<int64_t>(total) * (total - 1) / 2);
}

TEST(RunQueue, OwnerPopsNewestAndThievesTakeOldest) {
  RunQueue<int> q;
  EXPECT_TRUE(q.empty());
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.Push(i));
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(*q.PopBack(), 3);
  EXPECT_EQ(*q.PopFront(), 0);
  EXPECT_EQ(*q.PopBack(), 2);
  EXPECT_EQ(*q.PopFront(), 1);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.PopBack().has_value());
  EXPECT_FALSE(q.PopFront().has_value());
}

TEST(RunQueue, CloseRejectsPushesAndKeepsWhatWasQueued) {
  RunQueue<int> q;
  int hooks = 0;
  EXPECT_TRUE(q.Push(1, [&] { ++hooks; }));
  q.Close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.Push(2, [&] { ++hooks; }));  // rejected, hook not called
  EXPECT_EQ(hooks, 1);
  EXPECT_EQ(*q.PopFront(), 1);
  EXPECT_FALSE(q.PopFront().has_value());
}

TEST(RunQueue, OwnerAndThievesTakeEveryItemOnce) {
  constexpr int kItems = 20000;
  RunQueue<int> q;
  std::atomic<bool> done{false};
  std::vector<std::atomic<int>> seen(kItems);
  auto take = [&](std::optional<int> v) {
    if (v.has_value()) seen[*v].fetch_add(1);
    return v.has_value();
  };
  std::vector<std::thread> thieves;
  for (int t = 0; t < 3; ++t) {
    thieves.emplace_back([&] {
      while (!done.load() || !q.empty()) take(q.PopFront());
    });
  }
  for (int i = 0; i < kItems; ++i) {
    q.Push(i);
    if (i % 3 == 0) take(q.PopBack());
  }
  done.store(true);
  for (auto& thief : thieves) thief.join();
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(seen[i].load(), 1) << i;
}

TEST(Semaphore, PermitsBoundConcurrency) {
  Semaphore sem(2);
  EXPECT_TRUE(sem.TryAcquire());
  EXPECT_TRUE(sem.TryAcquire());
  EXPECT_FALSE(sem.TryAcquire());
  sem.Release();
  EXPECT_TRUE(sem.TryAcquire());
  sem.Release();
  sem.Release();
  EXPECT_EQ(sem.available(), 2u);
}

TEST(Semaphore, GuardReleases) {
  Semaphore sem(1);
  {
    SemaphoreGuard guard(sem);
    EXPECT_EQ(sem.available(), 0u);
  }
  EXPECT_EQ(sem.available(), 1u);
}

TEST(Semaphore, EnforcesMaxParallelismUnderLoad) {
  Semaphore sem(3);
  std::atomic<int> active{0}, peak{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 16; ++i) {
    threads.emplace_back([&] {
      SemaphoreGuard guard(sem);
      int now = active.fetch_add(1) + 1;
      int p = peak.load();
      while (now > p && !peak.compare_exchange_weak(p, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      active.fetch_sub(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(peak.load(), 3);
  EXPECT_GE(peak.load(), 2);  // with 16 threads we should saturate
}

TEST(Semaphore, BulkAcquireIsAllOrNothing) {
  Semaphore sem(3);
  EXPECT_FALSE(sem.TryAcquire(4));  // more than the pool ever holds
  EXPECT_TRUE(sem.TryAcquire(3));
  EXPECT_FALSE(sem.TryAcquire(1));
  sem.Release(2);
  EXPECT_EQ(sem.available(), 2u);
  EXPECT_FALSE(sem.TryAcquire(3));
  EXPECT_EQ(sem.available(), 2u);  // failed bulk try took nothing
  EXPECT_TRUE(sem.TryAcquire(2));
  sem.Release(3);
  EXPECT_EQ(sem.available(), 3u);
}

TEST(Semaphore, BulkReleaseWakesMultipleWaiters) {
  Semaphore sem(0);
  std::atomic<int> acquired{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&] {
      sem.Acquire();
      acquired.fetch_add(1);
    });
  }
  // One bulk Release(3) must satisfy all three blocked waiters (notify_all,
  // not a single notify per permit batch).
  sem.Release(3);
  for (auto& t : waiters) t.join();
  EXPECT_EQ(acquired.load(), 3);
  EXPECT_EQ(sem.available(), 0u);
}

TEST(Semaphore, CancellableAcquireReturnsFalseOnCancel) {
  Semaphore sem(1);
  CancelToken token;
  // Not enough permits for a bulk acquire of 2: the wait must end when the
  // token flips, leaving the pool untouched.
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.Cancel(Status::Aborted("deadline"));
  });
  EXPECT_FALSE(sem.Acquire(2, &token));
  canceller.join();
  EXPECT_EQ(sem.available(), 1u);

  // A fresh (un-cancelled) token acquires normally.
  CancelToken fresh;
  EXPECT_TRUE(sem.Acquire(1, &fresh));
  EXPECT_EQ(sem.available(), 0u);
  sem.Release();

  // An already-cancelled token fails even when permits are available.
  EXPECT_FALSE(sem.Acquire(1, &token));
  EXPECT_EQ(sem.available(), 1u);
}

TEST(InflightTracker, AwaitZeroReturnsImmediatelyWhenIdle) {
  InflightTracker tracker;
  tracker.AwaitZero();
  EXPECT_EQ(tracker.count(), 0);
}

TEST(InflightTracker, TracksNestedSpawns) {
  InflightTracker tracker;
  tracker.Add();
  std::thread t([&] {
    tracker.Add(3);  // children registered before parent finishes
    tracker.Done();  // parent
    for (int i = 0; i < 3; ++i) tracker.Done();
  });
  tracker.AwaitZero();
  EXPECT_EQ(tracker.count(), 0);
  t.join();
}

TEST(InflightTracker, NotifyOnZeroFiresInlineWhenAlreadyIdle) {
  InflightTracker tracker;
  bool fired = false;
  tracker.NotifyOnZero([&] { fired = true; });
  EXPECT_TRUE(fired);
  // The one-shot slot is free again: re-arming must not trip the
  // double-arm check, and the new callback fires on the next zero crossing.
  int count = 0;
  tracker.Add();
  tracker.NotifyOnZero([&] { ++count; });
  EXPECT_EQ(count, 0);
  tracker.Done();
  EXPECT_EQ(count, 1);
  tracker.Add();
  tracker.Done();
  EXPECT_EQ(count, 1);  // exactly once, not on every later zero crossing
}

TEST(InflightTracker, CallbackMayDestroyTrackerRacingLateCompletions) {
  // Regression test for the async executor's teardown pattern: the armed
  // callback finalizes — and destroys — the RunState that OWNS the tracker,
  // on whichever completion thread drove the count to zero. Done() must
  // therefore never touch a member after the callback is extracted, or the
  // destroying thread races the completing one. Run many iterations with
  // real thread interleaving; under TSan (the chaos suite) any post-
  // extraction member access or lock-order mistake is flagged.
  for (int iter = 0; iter < 200; ++iter) {
    struct Run {
      InflightTracker tracker;
    };
    auto run = std::make_shared<Run>();
    std::atomic<bool> finalized{false};
    // Setup guard: hold the count above zero while arming and spawning, the
    // race-free pattern from the executor's Submit().
    run->tracker.Add();
    constexpr int kTasks = 4;
    run->tracker.Add(kTasks);
    run->tracker.NotifyOnZero([&finalized, run]() mutable {
      run.reset();  // destroys the tracker if this was the last reference
      finalized.store(true, std::memory_order_release);
    });
    std::vector<std::thread> completions;
    completions.reserve(kTasks);
    for (int t = 0; t < kTasks; ++t) {
      completions.emplace_back([run] { run->tracker.Done(); });
    }
    run->tracker.Done();  // drop the setup guard; any thread may finish last
    // Release this scope's reference BEFORE joining: the callback's capture
    // is then the only remaining owner, so whichever Done() fires it truly
    // destroys the tracker while sibling threads may still be exiting
    // Done() on it.
    run.reset();
    for (std::thread& thread : completions) thread.join();
    ASSERT_TRUE(finalized.load(std::memory_order_acquire)) << iter;
  }
}

/// Starts `n` threads that each wait for the go signal, then run `body`.
template <typename Body>
std::vector<std::thread> StartTogether(int n, std::atomic<bool>* go,
                                       Body body) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int t = 0; t < n; ++t) {
    threads.emplace_back([go, body, t] {
      while (!go->load(std::memory_order_acquire)) std::this_thread::yield();
      body(t);
    });
  }
  return threads;
}

TEST(InflightTracker, WaiterDestroysTrackerRightAfterAwaitZeroWhileDonesRace) {
  // Done is lock-free while the count stays above zero and takes the mutex
  // only for the decrement that reaches zero. The waiter frees the tracker
  // the moment AwaitZero returns; under TSan or ASan, a Done that touched
  // the tracker after its decrement (or a zero produced outside the mutex)
  // shows up as a race or a use after free.
  constexpr int kThreads = 4;
  for (int round = 0; round < 1000; ++round) {
    auto tracker = std::make_unique<InflightTracker>();
    tracker->Add(kThreads);
    InflightTracker* raw = tracker.get();
    std::atomic<bool> go{false};
    auto threads =
        StartTogether(kThreads, &go, [raw](int) { raw->Done(); });
    go.store(true, std::memory_order_release);
    tracker->AwaitZero();
    tracker.reset();
    for (std::thread& thread : threads) thread.join();
  }
}

TEST(InflightTracker, NotifyOnZeroFiresExactlyOnceUnderRacingDones) {
  // Each thread registers children (Add) while the others decrement, so
  // the CAS path races Adds as well as Dones.
  constexpr int kThreads = 4;
  for (int round = 0; round < 1000; ++round) {
    InflightTracker tracker;
    std::atomic<int> fired{0};
    tracker.Add();  // setup guard
    tracker.Add(kThreads);
    tracker.NotifyOnZero([&fired] { fired.fetch_add(1); });
    std::atomic<bool> go{false};
    auto threads = StartTogether(kThreads, &go, [&tracker](int) {
      tracker.Add(2);
      tracker.Done();
      tracker.Done();
      tracker.Done();
    });
    go.store(true, std::memory_order_release);
    tracker.Done();  // drop the guard; any thread may finish last
    for (std::thread& thread : threads) thread.join();
    ASSERT_EQ(fired.load(), 1) << "round " << round;
    ASSERT_EQ(tracker.count(), 0);
  }
}

TEST(CompletionQueue, ListenerModeDeliversEveryPushFromManyThreadsOnce) {
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::atomic<uint32_t>> seen(kThreads * kPerThread);
  sim::CompletionQueue cq([&seen](const sim::Completion& c) {
    seen[c.tag].fetch_add(1, std::memory_order_relaxed);
  });
  std::atomic<bool> go{false};
  auto threads = StartTogether(kThreads, &go, [&cq](int t) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      cq.Push(sim::Completion{static_cast<uint64_t>(t) * kPerThread + i,
                              Status::OK(), sim::ReadOutcome()});
    }
  });
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  for (size_t tag = 0; tag < seen.size(); ++tag) {
    ASSERT_EQ(seen[tag].load(), 1u) << "tag " << tag;
  }
  EXPECT_TRUE(cq.empty());  // nothing buffered in listener mode
}

TEST(TimerService, EarlierEntryAddedAfterALaterOneFiresAtItsOwnDeadline) {
  TimerService timers;
  // First let the thread drain its map, so the next entry arrives while it
  // waits on an empty map.
  std::atomic<bool> warm{false};
  timers.After(0, [&warm] { warm.store(true); });
  while (!warm.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  while (timers.pending() != 0) std::this_thread::yield();

  std::atomic<int64_t> later_us{0};
  std::atomic<int64_t> earlier_us{0};
  const int64_t start_us = NowMicros();
  timers.After(400000, [&later_us] { later_us.store(NowMicros()); });
  timers.After(20000, [&earlier_us] { earlier_us.store(NowMicros()); });
  while (earlier_us.load() == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  // The thread slept toward the later deadline when the earlier entry came;
  // it must wake for the new earliest deadline, not the old one.
  EXPECT_GE(earlier_us.load() - start_us, 20000);
  EXPECT_LT(earlier_us.load() - start_us, 200000);
  EXPECT_EQ(later_us.load(), 0);
  EXPECT_EQ(timers.pending(), 1u);
}

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  InflightTracker inflight;
  inflight.Add(100);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(pool.Submit([&] {
      counter.fetch_add(1);
      inflight.Done();
    }));
  }
  inflight.AwaitZero();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ShutdownDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] { counter.fetch_add(1); });
    }
    pool.Shutdown();
    EXPECT_FALSE(pool.Submit([&] { counter.fetch_add(1000); }));
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, TasksRunConcurrently) {
  ThreadPool pool(8);
  std::atomic<int> active{0}, peak{0};
  InflightTracker inflight;
  inflight.Add(8);
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&] {
      int now = active.fetch_add(1) + 1;
      int p = peak.load();
      while (now > p && !peak.compare_exchange_weak(p, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      active.fetch_sub(1);
      inflight.Done();
    });
  }
  inflight.AwaitZero();
  EXPECT_GE(peak.load(), 4);  // most of the 8 should overlap
}

}  // namespace
}  // namespace lakeharbor
