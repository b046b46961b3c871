#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "concurrent/run_queue.h"
#include "concurrent/timer_service.h"
#include "rede/executor.h"
#include "rede/record_cache.h"
#include "rede/smpe_options.h"
#include "sim/cluster.h"

namespace lakeharbor::rede {

/// Scalable Massively Parallel Execution (Algorithm 1) over continuations:
/// the one SMPE engine. SmpeExecutor (smpe_executor.h) is this engine with
/// a per-node cap; AsyncExecutor itself is uncapped.
///
/// The job is distributed to every node. Tasks are fine-grained
/// {stage, tuples} units; emissions are routed by the data itself:
///   - next stage is a Referencer (inline mode): run immediately, cascade;
///   - tuple carries partition information: stay on the emitting node (the
///     Dereferencer performs the possibly-remote fetch);
///   - tuple carries none: replicate to every node marked LOCAL (broadcast,
///     lines 28-33).
/// Completion is detected by the run's in-flight count reaching zero.
///
/// Every point/batch/range dereference is an explicit state machine
/// (builtin_derefs.cc): the device charge is SUBMITTED
/// (sim::Disk::SubmitRandomRead & friends), the state machine suspends —
/// holding one heap frame, no thread — and the node's completion queue
/// later hands the continuation back to a small fixed worker pool
/// (`async_workers`, ~#cores). Thousands of in-flight dereferences cost
/// thousands of frames, not thousands of threads, at the SAME simulated
/// cost model: the async submission paths charge bit-identically to the
/// blocking ones, so result checksums and DAG counters do not depend on
/// the executor, the cap or the schedule.
///
/// Per-node cap (capped engine only): at most `cap` tasks of one node run
/// at once, counted per executor, so overlapping runs share it. A task
/// holds its slot from its hand-off to a worker until it ends, across
/// retries and backoff timers; a task that finds its node full parks in
/// the node's FIFO, and an ending task hands its slot straight to the next
/// parked one. A hedge's loser arm pins the run, not the slot. One mutex
/// per node guards the count and the FIFO; the uncapped engine never takes
/// it.
///
/// Hand-off: a task is one heap frame (TaskFrame: its tuples and its
/// continuation state), handed to a worker as a 16-byte thunk of `this` and
/// the frame pointer, which std::function stores inline; a device
/// completion is handed off by value. Work stealing (Blumofe & Leiserson,
/// JACM 1999): each worker owns a one-item slot and a run queue. A hand-off
/// made on one of this executor's workers — a task it dispatches, a
/// completion the device delivered inline during its own submission —
/// fills its slot when empty, else joins its queue. The worker drains the
/// slot, then its queue newest-first, so it follows the subtree it just
/// made; a worker without local work steals the oldest item of a peer's
/// queue, else takes the shared queue's oldest item. Only hand-offs from
/// other threads (device timer completions, backoff and hedge timers,
/// Submit's seeds from callers and the scheduler) go to the shared queue,
/// whose oldest item every worker takes first before every
/// kSharedPollInterval-th item it runs, slot items included, so an outside
/// hand-off never waits behind a whole local backlog. Stealing before the
/// shared queue starts a timed fan-out's reads before their first
/// completions are consumed, so the device sees the whole fan-out at
/// once. Idle workers block until a push finds them asleep; nothing polls.
/// Nothing runs in place either: the slot and the queues are drained only
/// after the current item returns, so the device stack is never
/// re-entered and the timer thread never runs a continuation.
///
/// Frames, thunks and continuations refer to the run by plain pointer: the
/// in-flight count a frame holds keeps the run alive, and EndTask deletes
/// the frame before it releases that count. The engine's own per-task
/// counters go to the running worker's shard of the run, on cache lines of
/// its own, folded into the snapshot when the run finalizes; the in-flight
/// count takes no lock above zero, and the per-node completion queues take
/// none at all.
///
/// Per task:
///   - retry with jittered exponential backoff (the backoff is a timer, not
///     a sleeping thread; cancellation is checked when it fires, so a
///     cancelled job exits within one backoff quantum plus one device op);
///   - replica failover and hedged reads (the hedge deadline is a timer;
///     the loser arm pins the run via AsyncRuntime::RetainIo until its late
///     completion has been consumed — zero leaked continuations);
///   - RecordCache batch admission with per-job attribution;
///   - deadlines, tracing spans, and exact JobProfile reconciliation.
///
/// With SmpeOptions::deterministic_seed != 0 the whole run executes on the
/// calling thread, uncapped: per-node task queues and PULL-mode completion
/// queues are drained by one seeded PRNG loop, so the seed permutes
/// COMPLETION order as well as task order, and the same seed replays the
/// same schedule. Deterministic replay is exact when device timing is
/// disabled (the recommended configuration; with timing enabled, real timer
/// interleaving perturbs the poll order).
class AsyncExecutor : public Executor {
 public:
  /// The uncapped engine ("rede-async").
  AsyncExecutor(sim::Cluster* cluster, SmpeOptions options);
  ~AsyncExecutor() override;
  LH_DISALLOW_COPY_AND_ASSIGN(AsyncExecutor);

  const std::string& name() const override { return name_; }
  const SmpeOptions& options() const { return options_; }

  using Executor::Execute;
  StatusOr<JobResult> Execute(const Job& job, const ResultSink& sink,
                              CancelToken* cancel) override;

  /// Non-blocking submission (real-time mode only): a scheduler slot is
  /// held by the run's continuation, not by a parked caller thread.
  /// Deterministic mode runs on the calling thread, so Submit degrades to
  /// blocking there.
  bool SupportsAsyncSubmit() const override {
    return options_.deterministic_seed == 0;
  }
  void Submit(const Job& job, const ResultSink& sink, CancelToken* cancel,
              SubmitDone done) override;

  /// The executor's record cache, or nullptr when caching is disabled.
  RecordCache* record_cache() const { return cache_.get(); }

 protected:
  /// At most `cap_per_node` tasks of one node run at once (0 = uncapped),
  /// under the executor name `name`.
  AsyncExecutor(sim::Cluster* cluster, SmpeOptions options,
                size_t cap_per_node, std::string name);

 private:
  struct RunState;      // per-Submit state; defined in .cc
  struct TaskFrame;     // one task and its continuation state; defined in .cc
  struct CounterShard;  // one worker's engine counters of a run; defined in .cc
  class Runtime;        // per-run AsyncRuntime implementation; defined in .cc

  /// What a worker runs: a task or timer thunk, or a device completion
  /// kept by value (no heap thunk per completion).
  using Work = std::variant<std::function<void()>, sim::Completion>;

  /// A worker with local work still takes the shared queue's oldest item
  /// before every kSharedPollInterval-th item it runs. Large enough that
  /// the check (one atomic load while the queue is empty) costs nothing;
  /// small enough that an outside hand-off waits for a few dozen items of
  /// a worker's backlog, not all of it.
  static constexpr size_t kSharedPollInterval = 32;

  /// One worker's hand-off state (see the class comment). Only the worker
  /// touches its slot; peers steal from the front of its queue.
  struct alignas(64) Worker {
    const AsyncExecutor* owner = nullptr;
    size_t index = 0;  // the worker's counter shard in every run
    std::optional<Work> slot;
    RunQueue<Work> queue;
  };

  /// One node's share of the per-node cap.
  struct NodeSlots {
    std::mutex mutex;
    size_t running = 0;              // guarded by mutex
    std::deque<TaskFrame*> parked;   // guarded by mutex; FIFO
  };

  /// State shared by Submit and ExecuteDeterministic, minus the queues.
  std::shared_ptr<RunState> NewRun(const Job& job, const ResultSink& sink,
                                   CancelToken* cancel, size_t shards);
  StatusOr<JobResult> ExecuteDeterministic(const Job& job,
                                           const ResultSink& sink,
                                           CancelToken* cancel);
  void RunTaskAsync(TaskFrame* frame);
  void StartAttempt(TaskFrame* frame);
  void OnAttemptDone(TaskFrame* frame, Status status);
  void ResumeAfterBackoff(TaskFrame* frame, Status status,
                          int64_t sleep_start_us, uint64_t backoff_us,
                          size_t retry);
  void FinishTask(TaskFrame* frame, Status status);
  /// Deletes the frame, hands its node slot on, then releases its count.
  void EndTask(TaskFrame* frame);
  void Route(RunState& run, sim::NodeId node, size_t next_stage,
             std::vector<Tuple>&& tuples);
  /// Allocates the task's frame and hands it to `dest`, or parks it while
  /// `dest` runs `cap_` tasks. The caller has registered the task in flight.
  void Dispatch(RunState& run, sim::NodeId dest, size_t stage,
                std::vector<Tuple>&& tuples);
  void Dispatch(RunState& run, sim::NodeId dest, size_t stage, Tuple&& tuple);
  /// Hands a frame that holds its node slot (if capped) to a worker.
  bool Start(TaskFrame* frame);
  /// Passes a freed slot of `node` to its oldest parked frame, or frees it.
  void ReleaseSlot(sim::NodeId node);
  void SeedInitial(RunState& run);
  /// The finished run's metrics (shards folded in) and trace.
  JobResult CollectResult(RunState& run) const;
  void FinalizeRun(const std::shared_ptr<RunState>& run);
  /// Single-threaded seeded drain of task AND completion sources.
  void RunDeterministic(RunState& run);
  /// Hands work to a worker. On one of this executor's workers: into its
  /// slot when empty, else onto its own queue. From any other thread: onto
  /// the shared queue, waking a sleeping worker. Returns false, dropping
  /// the work, when the shared queue has closed (the executor is shutting
  /// down). Also the listener of the per-node completion queues.
  bool Handoff(Work work);
  /// The calling thread's Worker when it is one of this executor's; null
  /// otherwise.
  Worker* OwnWorker() const;
  /// The calling thread's counter shard of `run`: its worker's in real
  /// time, the single shard under deterministic replay.
  CounterShard& ShardOf(RunState& run) const;
  void WorkerLoop(Worker& self);
  /// The next item for `self` (see the class comment), or nullopt when no
  /// queue has any. `since_poll` counts items run since the shared queue
  /// was last looked at.
  std::optional<Work> NextWork(Worker& self, size_t& since_poll);
  /// Blocks until a push may have made work; false once the executor is
  /// closing and no queue holds work.
  bool Idle();
  /// Wakes one sleeping worker, if any (called after every push).
  void WakeOne();

  std::string name_;
  sim::Cluster* cluster_;
  SmpeOptions options_;
  /// Per-node task cap, 0 when uncapped (always 0 under deterministic
  /// replay); slots_ has cluster->max_nodes() entries when capped.
  const size_t cap_;
  std::vector<NodeSlots> slots_;
  std::unique_ptr<RecordCache> cache_;  // nullptr unless cache.enabled
  /// The shared queue: hand-offs from threads that are not this
  /// executor's workers (see Handoff). Closed (only) at destruction.
  RunQueue<Work> ready_;
  std::vector<Worker> workers_;  // empty in deterministic mode
  /// The Worker running on this thread, of whichever executor; null on
  /// every other thread.
  static thread_local Worker* current_worker_;
  /// Sleep and wake. A worker about to sleep reads wake_epoch_, counts
  /// itself in sleepers_ and looks at every queue once more; a push that
  /// then finds a sleeper bumps the epoch, so the sleeper cannot miss it.
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  uint64_t wake_epoch_ = 0;  // guarded by idle_mutex_
  std::atomic<size_t> sleepers_{0};
  /// Executor-owned timers for retry backoffs, hedge deadlines, and run
  /// watchdogs. Declared after the queues and the wake state so it is
  /// destroyed FIRST: a late timer closure pushes into the already-closed
  /// shared queue (dropped silently) instead of into freed memory.
  TimerService timers_;
  std::vector<std::thread> threads_;  // one per worker
  std::atomic<uint64_t> run_seq_{0};
};

}  // namespace lakeharbor::rede
