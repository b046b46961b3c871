#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "concurrent/mpmc_queue.h"
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
/// the frame pointer, which std::function stores inline. Each worker owns a
/// one-item local slot that it drains after the current thunk returns. The
/// slot takes a completion the device delivered inline during that worker's
/// own submission — parked by value — or the first task the worker
/// dispatches while the slot is empty; everything else (timer thread
/// completions, further children, backoff and hedge timers, submissions
/// from outside a worker) goes through the shared ready queue. Nothing runs
/// in place, so the device stack is never re-entered and the timer thread
/// never runs a continuation.
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
  /// Hands a thunk to a worker: into the calling worker's empty local slot
  /// when called on one of this executor's workers, else onto ready_.
  /// Returns false when the executor is shutting down.
  bool Handoff(std::function<void()> thunk);
  /// Listener of the per-node completion queues: parks the completion by
  /// value in the calling worker's empty local slot, else queues it.
  void Deliver(const sim::Completion& c);
  /// The calling thread's counter shard of `run`: its worker's in real
  /// time, the single shard under deterministic replay.
  CounterShard& ShardOf(RunState& run) const;
  void WorkerLoop(size_t worker);

  std::string name_;
  sim::Cluster* cluster_;
  SmpeOptions options_;
  /// Per-node task cap, 0 when uncapped (always 0 under deterministic
  /// replay); slots_ has cluster->max_nodes() entries when capped.
  const size_t cap_;
  std::vector<NodeSlots> slots_;
  std::unique_ptr<RecordCache> cache_;  // nullptr unless cache.enabled
  /// Executor-wide ready queue: task thunks and delivered completions that
  /// did not fit a worker's local slot (see Handoff), drained by the shared
  /// worker pool. Closed (only) at destruction.
  MpmcQueue<std::function<void()>> ready_;
  /// Executor-owned timers for retry backoffs, hedge deadlines, and run
  /// watchdogs. Declared after ready_ so it is destroyed FIRST: a late
  /// timer closure pushes into the already-closed ready queue (dropped
  /// silently) instead of into freed memory.
  TimerService timers_;
  std::vector<std::thread> workers_;  // empty in deterministic mode
  std::atomic<uint64_t> run_seq_{0};
};

}  // namespace lakeharbor::rede
