#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "concurrent/mpmc_queue.h"
#include "concurrent/timer_service.h"
#include "rede/executor.h"
#include "rede/record_cache.h"
#include "rede/smpe_executor.h"
#include "sim/cluster.h"

namespace lakeharbor::rede {

/// SMPE over continuations instead of parked threads (SmpeEngine::kAsync).
///
/// The threaded engine holds one pool thread blocked inside the simulated
/// device stack for every in-flight dereference, so its in-flight ceiling is
/// nodes x threads_per_node. This engine turns every point/batch/range
/// dereference into an explicit state machine (builtin_derefs.cc): the
/// device charge is SUBMITTED (sim::Disk::SubmitRandomRead & friends), the
/// state machine suspends — holding one heap frame, no thread — and the
/// node's completion queue later hands the continuation back to a small
/// fixed worker pool (~#cores). Thousands of in-flight dereferences cost
/// thousands of frames, not thousands of threads, at the SAME simulated
/// cost model: the async submission paths charge bit-identically to the
/// blocking ones, so checksums, counters, and profiles match the threaded
/// engine exactly.
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
/// in-flight count a frame holds keeps the run alive, and FinishTask deletes
/// the frame before it releases that count. The engine's own per-task
/// counters go to the running worker's shard of the run, on cache lines of
/// its own, folded into the snapshot when the run finalizes; the in-flight
/// count takes no lock above zero, and the per-node completion queues take
/// none at all.
///
/// Semantics preserved from the threaded engine, per task:
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
/// calling thread: per-node task queues and PULL-mode completion queues are
/// drained by one seeded PRNG loop, so the seed permutes COMPLETION order
/// as well as task order, and the same seed replays the same schedule.
/// Deterministic replay is exact when device timing is disabled (the
/// recommended configuration; with timing enabled, real timer interleaving
/// perturbs the poll order).
class AsyncExecutor final : public Executor {
 public:
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

 private:
  struct RunState;      // per-Submit state; defined in .cc
  struct TaskFrame;     // one task and its continuation state; defined in .cc
  struct CounterShard;  // one worker's engine counters of a run; defined in .cc
  class Runtime;        // per-run AsyncRuntime implementation; defined in .cc

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
  void Route(RunState& run, sim::NodeId node, size_t next_stage,
             std::vector<Tuple>&& tuples);
  /// Allocates the task's frame and hands it to `dest`. The caller has
  /// registered the task in flight.
  void Dispatch(RunState& run, sim::NodeId dest, size_t stage,
                std::vector<Tuple>&& tuples);
  void Dispatch(RunState& run, sim::NodeId dest, size_t stage, Tuple&& tuple);
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

  std::string name_ = "rede-async";
  sim::Cluster* cluster_;
  SmpeOptions options_;
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
