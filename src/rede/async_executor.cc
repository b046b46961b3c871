#include "rede/async_executor.h"

#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <utility>
#include <variant>

#include "common/clock.h"
#include "common/random.h"
#include "concurrent/inflight_tracker.h"
#include "concurrent/mpmc_queue.h"
#include "obs/trace.h"
#include "rede/deref_batch.h"
#include "sim/completion_queue.h"

namespace lakeharbor::rede {

namespace {
/// Approximate wire size of a tuple shipped in a broadcast message.
size_t ApproxTupleBytes(const Tuple& tuple) {
  size_t bytes = tuple.pointer.key.size() + tuple.pointer.partition_key.size();
  for (const auto& record : tuple.records) bytes += record.size();
  return bytes + 16;
}

void RecordQueueWaitSpan(obs::TraceRecorder* trace, size_t stage,
                         sim::NodeId node, int64_t enqueue_us,
                         int64_t dequeue_us) {
  if (trace == nullptr || enqueue_us <= 0 || dequeue_us < enqueue_us) return;
  obs::Span span;
  span.name = "queue-wait";
  span.kind = obs::SpanKind::kQueueWait;
  span.stage = static_cast<uint32_t>(stage);
  span.node = node;
  span.t_start_us = enqueue_us;
  span.t_end_us = dequeue_us;
  trace->Record(std::move(span));
}

void RecordBackoffSpan(obs::TraceRecorder* trace, size_t stage,
                       sim::NodeId node, int64_t sleep_start_us, size_t retry,
                       uint64_t backoff_us, bool interrupted) {
  if (trace == nullptr) return;
  obs::Span span;
  span.name = "retry-backoff";
  span.kind = obs::SpanKind::kRetryBackoff;
  span.stage = static_cast<uint32_t>(stage);
  span.node = node;
  span.t_start_us = sleep_start_us;
  span.t_end_us = NowMicros();
  span.AddAttr("retry", static_cast<int64_t>(retry));
  span.AddAttr("backoff_us", static_cast<int64_t>(backoff_us));
  if (interrupted) span.AddAttr("interrupted", 1);
  trace->Record(std::move(span));
}

/// One stage's invocation and emission counts on a line of its own.
struct alignas(64) StageCount {
  uint64_t invocations = 0;
  uint64_t emitted = 0;
};
}  // namespace

/// The engine's own per-task counters of one run, as one worker bumps them
/// (DESIGN §11). Plain single-writer fields on cache lines of their own,
/// folded into the MetricsSnapshot when the run finalizes: every task ends
/// with an acq_rel decrement of the in-flight count, so whatever a worker
/// wrote happens-before the thread that sees the count drain. Only the
/// engine's per-task counters live here; the stage functions' rare events
/// (cache, failover, hedge, repair), the fan-out and retry counters and the
/// active/peak dereference gauge stay on the run's shared
/// ExecMetricsCounters.
struct alignas(64) AsyncExecutor::CounterShard {
  uint64_t deref_invocations = 0;
  uint64_t ref_invocations = 0;
  uint64_t tuples_emitted = 0;
  obs::HistogramSnapshot deref_latency_us;
  obs::HistogramSnapshot queue_dwell_us;
  std::vector<StageCount> per_stage;

  void CountStage(size_t stage, uint64_t emitted) {
    if (stage >= per_stage.size()) return;
    ++per_stage[stage].invocations;
    per_stage[stage].emitted += emitted;
  }

  void FoldInto(MetricsSnapshot* s) const {
    s->deref_invocations += deref_invocations;
    s->ref_invocations += ref_invocations;
    s->tuples_emitted += tuples_emitted;
    s->deref_latency_us.Merge(deref_latency_us);
    s->queue_dwell_us.Merge(queue_dwell_us);
    for (size_t i = 0; i < per_stage.size() && i < s->per_stage.size(); ++i) {
      s->per_stage[i].invocations += per_stage[i].invocations;
      s->per_stage[i].emitted += per_stage[i].emitted;
    }
  }
};

/// All state of one submission. shared_ptr-owned by the armed NotifyOnZero
/// callback (and the submitting call); tasks, continuations and the
/// runtime refer to it by plain pointer, kept alive by the in-flight count
/// they hold. The last reference drops shortly after FinalizeRun delivers
/// the result; the deadline watchdog holds a weak_ptr.
struct AsyncExecutor::RunState {
  const Job* job = nullptr;
  std::string job_name;
  uint64_t job_id = 0;
  uint32_t num_nodes = 0;
  uint64_t fanout_epoch = 0;
  obs::TraceRecorder* trace = nullptr;
  std::unique_ptr<obs::TraceRecorder> recorder;
  ExecMetricsCounters metrics;
  /// One per worker (one under deterministic replay); see CounterShard.
  std::vector<CounterShard> shards;
  InflightTracker inflight;
  StopWatch watch;

  std::mutex sink_mutex;
  ResultSink sink;

  CancelToken* cancel = nullptr;
  CancelToken owned_cancel;
  /// Guards the watchdog against cancelling through a caller-owned token
  /// whose lifetime ended with the completion callback: once `finalized`
  /// flips (under the mutex, before on_done runs), late timers stand down.
  std::mutex finalize_mutex;
  bool finalized = false;

  Executor::SubmitDone on_done;
  /// Continuation runtime handed to stage functions (real-time mode only;
  /// null under deterministic replay, which makes the builtin state
  /// machines skip hedging).
  std::unique_ptr<Runtime> runtime;
  /// One completion queue per node: listener mode in real time (parking or
  /// queueing the completion for a worker), pull mode under deterministic
  /// replay.
  std::vector<std::unique_ptr<sim::CompletionQueue>> cqs;
  /// Deterministic mode only: per-node task queues drained by the seeded
  /// single-threaded driver.
  std::vector<std::unique_ptr<MpmcQueue<TaskFrame*>>> det_queues;

  void RecordError(const Status& status, const std::string& where) {
    cancel->Cancel(status.WithContext(where));
  }
  bool Failed() const { return cancel->cancelled(); }
  void Emit(const Tuple& tuple) {
    metrics.output_tuples.fetch_add(1, std::memory_order_relaxed);
    if (!sink) return;
    std::lock_guard<std::mutex> lock(sink_mutex);
    sink(tuple);
  }
  void CancelFromWatchdog(Status cause) {
    std::lock_guard<std::mutex> lock(finalize_mutex);
    if (finalized) return;
    cancel->Cancel(std::move(cause));
  }
};

/// One task: its tuples, and its continuation state machine. Owns the
/// task's tuples, emission buffer, and retry counter across suspensions.
/// Allocated by Dispatch, deleted by EndTask; it holds one in-flight count
/// of its run from Dispatch until then, and on the capped engine its node
/// slot from the hand-off to a worker until then.
struct AsyncExecutor::TaskFrame {
  RunState* run = nullptr;
  sim::NodeId node = 0;
  size_t stage = 0;
  std::vector<Tuple> tuples;
  int64_t enqueue_us = 0;
  const StageFunction* fn = nullptr;
  ExecContext ctx;
  std::vector<Tuple> outs;
  size_t retry = 0;
  bool batched = false;
  int64_t work_start_us = 0;
  int64_t attempt_start_us = 0;
};

class AsyncExecutor::Runtime final : public AsyncRuntime {
 public:
  Runtime(AsyncExecutor* exec, RunState* run) : exec_(exec), run_(run) {}
  void After(uint64_t delay_us, std::function<void()> fn) override {
    // The timer thread only hands off; the continuation runs on a worker.
    exec_->timers_.After(delay_us,
                         [exec = exec_, fn = std::move(fn)]() mutable {
                           exec->Handoff(std::move(fn));
                         });
  }
  void RetainIo() override { run_->inflight.Add(); }
  void ReleaseIo() override { run_->inflight.Done(); }

 private:
  AsyncExecutor* exec_;
  RunState* run_;
};

AsyncExecutor::AsyncExecutor(sim::Cluster* cluster, SmpeOptions options)
    : AsyncExecutor(cluster, std::move(options), 0, "rede-async") {}

AsyncExecutor::AsyncExecutor(sim::Cluster* cluster, SmpeOptions options,
                             size_t cap_per_node, std::string name)
    : name_(std::move(name)),
      cluster_(cluster),
      options_(options),
      cap_(options_.deterministic_seed == 0 ? cap_per_node : 0) {
  LH_CHECK(cluster_ != nullptr);
  if (cap_ != 0) slots_ = std::vector<NodeSlots>(cluster_->max_nodes());
  if (options_.cache.enabled) {
    cache_ = std::make_unique<RecordCache>(options_.cache);
  }
  if (options_.deterministic_seed == 0) {
    size_t n = options_.async_workers != 0
                   ? options_.async_workers
                   : static_cast<size_t>(std::thread::hardware_concurrency());
    if (n == 0) n = 1;
    // Every Worker exists before any thread starts looking for work.
    workers_ = std::vector<Worker>(n);
    for (size_t i = 0; i < n; ++i) {
      workers_[i].owner = this;
      workers_[i].index = i;
    }
    threads_.reserve(n);
    for (Worker& worker : workers_) {
      threads_.emplace_back([this, &worker] { WorkerLoop(worker); });
    }
  }
}

AsyncExecutor::~AsyncExecutor() {
  // Contract: no runs in flight, so no frame is parked in slots_ and every
  // worker's slot and queue are empty. timers_ is destroyed before ready_
  // by declaration order, so a pending timer closure either fires into the
  // closed queue (dropped) or is dropped by ~TimerService itself.
  ready_.Close();
  {
    std::lock_guard<std::mutex> lock(idle_mutex_);
    ++wake_epoch_;
  }
  idle_cv_.notify_all();
  for (auto& thread : threads_) thread.join();
}

thread_local AsyncExecutor::Worker* AsyncExecutor::current_worker_ = nullptr;

AsyncExecutor::Worker* AsyncExecutor::OwnWorker() const {
  Worker* worker = current_worker_;
  return worker != nullptr && worker->owner == this ? worker : nullptr;
}

AsyncExecutor::CounterShard& AsyncExecutor::ShardOf(RunState& run) const {
  if (options_.deterministic_seed != 0) return run.shards.front();
  const Worker* worker = OwnWorker();
  LH_DCHECK(worker != nullptr);
  return run.shards[worker->index];
}

bool AsyncExecutor::Handoff(Work work) {
  if (Worker* self = OwnWorker()) {
    if (!self->slot.has_value()) {
      self->slot.emplace(std::move(work));
    } else {
      // Only this worker pushes here, and the destructor joins it before
      // the wake state dies, so it may wake a peer after the push returns.
      self->queue.Push(std::move(work));
      WakeOne();
    }
    return true;
  }
  // The pusher may be a device timer thread the executor cannot join: it
  // wakes a sleeper under the queue's lock, and touches nothing after.
  return ready_.Push(std::move(work), [this] { WakeOne(); });
}

void AsyncExecutor::WakeOne() {
  if (sleepers_.load() == 0) return;
  std::lock_guard<std::mutex> lock(idle_mutex_);
  ++wake_epoch_;
  idle_cv_.notify_one();
}

std::optional<AsyncExecutor::Work> AsyncExecutor::NextWork(
    Worker& self, size_t& since_poll) {
  if (since_poll >= kSharedPollInterval) {
    since_poll = 0;
    if (auto work = ready_.PopFront()) return work;
  }
  if (self.slot.has_value()) return std::exchange(self.slot, std::nullopt);
  if (auto work = self.queue.PopBack()) return work;
  const size_t n = workers_.size();
  for (size_t i = 1; i < n; ++i) {
    if (auto work = workers_[(self.index + i) % n].queue.PopFront()) {
      return work;
    }
  }
  since_poll = 0;
  return ready_.PopFront();
}

bool AsyncExecutor::Idle() {
  uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(idle_mutex_);
    epoch = wake_epoch_;
  }
  sleepers_.fetch_add(1);
  // Counted as a sleeper, look once more: a push that found no sleeper is
  // visible here (RunQueue's seq_cst size), and any later push wakes us.
  bool work_left = !ready_.empty();
  for (const Worker& worker : workers_) {
    work_left = work_left || !worker.queue.empty();
  }
  bool keep_running = true;
  if (!work_left) {
    if (ready_.closed()) {
      keep_running = false;
    } else {
      std::unique_lock<std::mutex> lock(idle_mutex_);
      idle_cv_.wait(lock, [&] { return wake_epoch_ != epoch; });
    }
  }
  sleepers_.fetch_sub(1);
  return keep_running;
}

void AsyncExecutor::WorkerLoop(Worker& self) {
  current_worker_ = &self;
  size_t since_poll = 0;
  for (;;) {
    std::optional<Work> work = NextWork(self, since_poll);
    if (!work.has_value()) {
      if (Idle()) continue;
      break;
    }
    ++since_poll;
    // The item left the slot or queue before it runs, so it can refill
    // them; they are drained only after it returns, so a continuation
    // never runs inside the device call that completed it.
    if (auto* thunk = std::get_if<std::function<void()>>(&*work)) {
      (*thunk)();
    } else {
      sim::DeliverCallbackTag(std::get<sim::Completion>(*work));
    }
  }
  current_worker_ = nullptr;
}

void AsyncExecutor::RunTaskAsync(TaskFrame* frame) {
  RunState& run = *frame->run;
  if (run.Failed()) {
    // Fail-fast drain: another task recorded a permanent error, so this one
    // is dropped unexecuted.
    run.metrics.tasks_dropped_on_failure.fetch_add(1,
                                                   std::memory_order_relaxed);
    EndTask(frame);
    return;
  }
  LH_CHECK(!frame->tuples.empty());
  const int64_t dequeue_us = NowMicros();
  if (frame->enqueue_us > 0 && dequeue_us >= frame->enqueue_us) {
    ShardOf(run).queue_dwell_us.Record(
        static_cast<uint64_t>(dequeue_us - frame->enqueue_us));
  }
  RecordQueueWaitSpan(run.trace, frame->stage, frame->node, frame->enqueue_us,
                      dequeue_us);
  frame->fn = run.job->stages()[frame->stage].get();
  frame->work_start_us = dequeue_us;
  frame->batched = frame->tuples.size() > 1;
  ExecContext& ctx = frame->ctx;
  ctx = ExecContext{frame->node, cluster_, &run.metrics, cache_.get()};
  ctx.cancel = run.cancel;
  ctx.trace = run.trace;
  ctx.stage = static_cast<uint32_t>(frame->stage);
  ctx.completion_queue = run.cqs[frame->node].get();
  if (options_.deterministic_seed == 0) {
    ctx.async = run.runtime.get();
    // Hedging needs the runtime: deadline timers, and the run pin each
    // in-flight arm holds.
    if (options_.hedge.enabled) ctx.hedge = options_.hedge;
  }
  if (frame->batched) {
    run.metrics.deref_batches.fetch_add(1, std::memory_order_relaxed);
    run.metrics.deref_batched_pointers.fetch_add(frame->tuples.size(),
                                                 std::memory_order_relaxed);
    run.metrics.deref_batch_size.Record(frame->tuples.size());
  }
  StartAttempt(frame);
}

void AsyncExecutor::StartAttempt(TaskFrame* frame) {
  frame->outs.clear();  // discard partial emissions of a failed attempt
  RunState& run = *frame->run;
  const StageFunction& fn = *frame->fn;
  if (fn.IsDereferencer()) {
    ++ShardOf(run).deref_invocations;
    // EnterDeref..ExitDeref spans the SUSPENSION: a dereference awaiting a
    // device completion is in flight without holding a worker, which is the
    // engine's headline observable (peak_parallel_derefs >> #workers).
    // deref_latency_us likewise measures submit -> completion wall time,
    // the same span the partitioned executor measures around its blocking
    // call.
    run.metrics.EnterDeref();
    frame->attempt_start_us = NowMicros();
    // 16 trivially copyable bytes: std::function keeps them inline.
    auto cb = [this, frame](Status s) { OnAttemptDone(frame, std::move(s)); };
    if (frame->batched) {
      fn.ExecuteBatchAsync(frame->ctx, frame->tuples, &frame->outs,
                           std::move(cb));
    } else {
      fn.ExecuteAsync(frame->ctx, frame->tuples.front(), &frame->outs,
                      std::move(cb));
    }
    return;
  }
  // Referencer tasks are always singletons and pure CPU: run them to
  // completion right here.
  ++ShardOf(run).ref_invocations;
  Status status = fn.Execute(frame->ctx, frame->tuples.front(), &frame->outs);
  OnAttemptDone(frame, std::move(status));
}

void AsyncExecutor::OnAttemptDone(TaskFrame* frame, Status status) {
  RunState& run = *frame->run;
  const StageFunction& fn = *frame->fn;
  if (fn.IsDereferencer()) {
    const int64_t attempt_us = NowMicros() - frame->attempt_start_us;
    ShardOf(run).deref_latency_us.Record(
        attempt_us > 0 ? static_cast<uint64_t>(attempt_us) : 0);
    run.metrics.ExitDeref();
  }
  // Only Dereferencer failures can be transient (they touch devices);
  // Referencer errors are logic errors and always fail fast. Stop retrying
  // once some other task has already failed the job.
  if (status.ok() || !fn.IsDereferencer() || !status.IsRetryable() ||
      frame->retry >= options_.retry.max_retries || run.Failed()) {
    FinishTask(frame, std::move(status));
    return;
  }
  ++frame->retry;
  const uint64_t jitter_seed =
      run.job_id ^ (static_cast<uint64_t>(frame->node) << 32) ^
      static_cast<uint64_t>(frame->stage);
  const uint64_t backoff_us =
      options_.retry.JitteredBackoffUs(frame->retry, jitter_seed);
  run.metrics.retries.fetch_add(1, std::memory_order_relaxed);
  run.metrics.retry_backoff_us.fetch_add(backoff_us,
                                         std::memory_order_relaxed);
  run.metrics.retry_backoff_hist_us.Record(backoff_us);
  if (backoff_us == 0) {
    StartAttempt(frame);
    return;
  }
  const int64_t sleep_start_us = NowMicros();
  if (frame->ctx.async != nullptr) {
    // Real-time: the backoff is a timer, not a sleeping worker. The resume
    // thunk re-checks cancellation, so a cancelled job exits its ladder
    // within one backoff quantum (it drains the CURRENT interval rather
    // than waking mid-sleep). The task keeps its node slot meanwhile.
    const size_t retry = frame->retry;
    frame->ctx.async->After(
        backoff_us, [this, frame, status = std::move(status), sleep_start_us,
                     backoff_us, retry]() mutable {
          ResumeAfterBackoff(frame, std::move(status), sleep_start_us,
                             backoff_us, retry);
        });
    return;
  }
  // Deterministic replay: interruptible inline wait on the driver thread.
  const bool interrupted = run.cancel->WaitFor(backoff_us);
  RecordBackoffSpan(run.trace, frame->stage, frame->node, sleep_start_us,
                    frame->retry, backoff_us, interrupted);
  if (interrupted) {
    FinishTask(frame, std::move(status));
    return;
  }
  StartAttempt(frame);
}

void AsyncExecutor::ResumeAfterBackoff(TaskFrame* frame, Status status,
                                       int64_t sleep_start_us,
                                       uint64_t backoff_us, size_t retry) {
  RunState& run = *frame->run;
  const bool interrupted = run.Failed();
  RecordBackoffSpan(run.trace, frame->stage, frame->node, sleep_start_us,
                    retry, backoff_us, interrupted);
  if (interrupted) {
    FinishTask(frame, std::move(status));
    return;
  }
  StartAttempt(frame);
}

void AsyncExecutor::FinishTask(TaskFrame* frame, Status status) {
  RunState& run = *frame->run;
  const StageFunction& fn = *frame->fn;
  if (run.trace != nullptr) {
    // One work span per counted invocation (failed ones marked, so the
    // profiler reconciles successful spans against CountStage exactly).
    obs::Span span;
    span.name = fn.name();
    span.kind = frame->batched       ? obs::SpanKind::kDerefBatch
                : fn.IsDereferencer() ? obs::SpanKind::kDereference
                                      : obs::SpanKind::kReferencer;
    span.stage = static_cast<uint32_t>(frame->stage);
    span.node = frame->node;
    span.t_start_us = frame->work_start_us;
    span.t_end_us = NowMicros();
    span.AddAttr("emitted", static_cast<int64_t>(frame->outs.size()));
    span.AddAttr("attempts", static_cast<int64_t>(frame->retry + 1));
    if (frame->batched) {
      span.AddAttr("batch", static_cast<int64_t>(frame->tuples.size()));
    }
    if (!status.ok()) span.AddAttr("failed", 1);
    run.trace->Record(std::move(span));
  }
  if (!status.ok()) {
    run.metrics.tasks_dropped_on_failure.fetch_add(1,
                                                   std::memory_order_relaxed);
    run.RecordError(status, "stage " + std::to_string(frame->stage) + " (" +
                                fn.name() + ") on node " +
                                std::to_string(frame->node) + " after " +
                                std::to_string(frame->retry + 1) +
                                " attempts");
  } else {
    ShardOf(run).CountStage(frame->stage, frame->outs.size());
    Route(run, frame->node, frame->stage + 1, std::move(frame->outs));
  }
  EndTask(frame);
}

void AsyncExecutor::EndTask(TaskFrame* frame) {
  RunState& run = *frame->run;
  const sim::NodeId node = frame->node;
  // Delete the frame, then release its count: the count is what keeps the
  // run alive, and Done may finalize (and destroy) it on this thread. The
  // slot goes before the count: once the last run finalizes, its caller
  // may destroy this executor.
  delete frame;
  if (cap_ != 0) ReleaseSlot(node);
  run.inflight.Done();
}

void AsyncExecutor::Route(RunState& state, sim::NodeId node,
                          size_t next_stage, std::vector<Tuple>&& tuples) {
  CounterShard& shard = ShardOf(state);
  shard.tuples_emitted += tuples.size();
  // Explicit LIFO work stack instead of recursion, so a long chain of inline
  // Referencers cannot overflow the stack. Broadcast ChargeMessage stays
  // synchronous on the routing thread (a documented deviation: it charges
  // the identical cost, it just doesn't suspend).
  struct Pending {
    size_t stage;
    Tuple tuple;
  };
  std::vector<Pending> work;
  work.reserve(tuples.size());
  // Keyed tuples bound for batchable Dereferencer stages are buffered across
  // the whole cascade and flushed as coalesced per-partition batch tasks at
  // the end. They are not yet in flight, so the fail-fast returns below
  // drop them without unbalancing the count.
  std::map<size_t, std::vector<Tuple>> batch_buffer;
  for (auto it = tuples.rbegin(); it != tuples.rend(); ++it) {
    work.push_back(Pending{next_stage, std::move(*it)});
  }
  while (!work.empty()) {
    if (state.Failed()) return;
    Pending pending = std::move(work.back());
    work.pop_back();
    if (pending.stage >= state.job->num_stages()) {
      state.Emit(pending.tuple);
      continue;
    }
    const StageFunction& next_fn = *state.job->stages()[pending.stage];
    if (!next_fn.IsDereferencer() && options_.inline_referencers) {
      // The paper's optimization: Referencers are lightweight, so run them
      // on the emitting thread instead of round-tripping through a task.
      ExecContext ctx{node, cluster_, &state.metrics};
      ctx.trace = state.trace;
      ctx.stage = static_cast<uint32_t>(pending.stage);
      std::vector<Tuple> outs;
      ++shard.ref_invocations;
      const int64_t start_us = state.trace != nullptr ? NowMicros() : 0;
      Status status = next_fn.Execute(ctx, pending.tuple, &outs);
      if (state.trace != nullptr) {
        obs::Span span;
        span.name = next_fn.name();
        span.kind = obs::SpanKind::kReferencer;
        span.stage = static_cast<uint32_t>(pending.stage);
        span.node = node;
        span.t_start_us = start_us;
        span.t_end_us = NowMicros();
        span.AddAttr("emitted", static_cast<int64_t>(outs.size()));
        span.AddAttr("inline", 1);
        if (!status.ok()) span.AddAttr("failed", 1);
        state.trace->Record(std::move(span));
      }
      if (!status.ok()) {
        state.RecordError(status, next_fn.name());
        return;
      }
      shard.CountStage(pending.stage, outs.size());
      shard.tuples_emitted += outs.size();
      for (auto it = outs.rbegin(); it != outs.rend(); ++it) {
        work.push_back(Pending{pending.stage + 1, std::move(*it)});
      }
      continue;
    }
    if (next_fn.IsDereferencer() && !pending.tuple.pointer.has_partition &&
        !pending.tuple.resolve_local && next_fn.WantsBroadcast()) {
      // Broadcast: one copy per node, marked for local resolution. A copy
      // bound for a down node of a replicated stage is redirected: it stays
      // here with the down node as resolve_owner, and this node resolves
      // that node's partitions through replica failover. Unreplicated
      // stages fail the broadcast instead.
      state.metrics.broadcasts.fetch_add(1, std::memory_order_relaxed);
      const size_t bytes = ApproxTupleBytes(pending.tuple);
      const sim::NodeId last = state.num_nodes - 1;
      const bool replicated = next_fn.TargetReplication() > 1;
      for (sim::NodeId m = 0; m <= last; ++m) {
        sim::NodeId dest = m;
        uint32_t owner = Tuple::kResolveOnSelf;
        if (m != node) {
          if (replicated && cluster_->NodeIsDown(m)) {
            dest = node;
            owner = m;
            state.metrics.broadcast_redirects.fetch_add(
                1, std::memory_order_relaxed);
          } else {
            Status status = cluster_->ChargeMessage(node, m, bytes);
            if (!status.ok()) {
              if (replicated && status.IsUnavailable()) {
                dest = node;
                owner = m;
                state.metrics.broadcast_redirects.fetch_add(
                    1, std::memory_order_relaxed);
              } else {
                state.RecordError(status, "broadcast");
                return;
              }
            }
          }
        }
        Tuple copy = (m == last) ? std::move(pending.tuple) : pending.tuple;
        copy.resolve_local = true;
        copy.resolve_owner = owner;
        copy.resolve_epoch = state.fanout_epoch;
        state.inflight.Add();
        Dispatch(state, dest, pending.stage, std::move(copy));
      }
      continue;
    }
    if (options_.batch.enabled && next_fn.IsDereferencer() &&
        !pending.tuple.is_range && pending.tuple.pointer.has_partition &&
        next_fn.SupportsBatchedDereference()) {
      batch_buffer[pending.stage].push_back(std::move(pending.tuple));
      continue;
    }
    state.inflight.Add();
    Dispatch(state, node, pending.stage, std::move(pending.tuple));
  }
  for (auto& [stage, buffered] : batch_buffer) {
    if (state.Failed()) return;
    const StageFunction& fn = *state.job->stages()[stage];
    for (PointerBatch& batch : CoalesceByPartition(
             std::move(buffered), fn, options_.batch.max_batch_size)) {
      state.inflight.Add();
      Dispatch(state, node, stage, std::move(batch.tuples));
    }
  }
}

void AsyncExecutor::Dispatch(RunState& run, sim::NodeId dest, size_t stage,
                             Tuple&& tuple) {
  std::vector<Tuple> tuples;
  tuples.push_back(std::move(tuple));
  Dispatch(run, dest, stage, std::move(tuples));
}

void AsyncExecutor::Dispatch(RunState& run, sim::NodeId dest, size_t stage,
                             std::vector<Tuple>&& tuples) {
  auto* frame = new TaskFrame;
  frame->run = &run;
  frame->node = dest;
  frame->stage = stage;
  frame->tuples = std::move(tuples);
  frame->enqueue_us = NowMicros();
  if (cap_ != 0) {
    NodeSlots& slots = slots_[dest];
    std::lock_guard<std::mutex> lock(slots.mutex);
    if (slots.running == cap_) {
      slots.parked.push_back(frame);
      return;
    }
    ++slots.running;
  }
  const bool handed_off = options_.deterministic_seed != 0
                              ? run.det_queues[dest]->Push(frame)
                              : Start(frame);
  // Rejected enqueue (the executor is shutting down under a live run):
  // balance the count or the run hangs.
  if (!handed_off) EndTask(frame);
}

bool AsyncExecutor::Start(TaskFrame* frame) {
  return Handoff([this, frame] { RunTaskAsync(frame); });
}

void AsyncExecutor::ReleaseSlot(sim::NodeId node) {
  NodeSlots& slots = slots_[node];
  for (;;) {
    TaskFrame* next = nullptr;
    {
      std::lock_guard<std::mutex> lock(slots.mutex);
      if (slots.parked.empty()) {
        --slots.running;
        return;
      }
      next = slots.parked.front();
      slots.parked.pop_front();
    }
    // The slot passes to `next`. Rejected (shutting down): drop `next`
    // and pass the slot on again.
    if (Start(next)) return;
    RunState& run = *next->run;
    delete next;
    run.inflight.Done();
  }
}

void AsyncExecutor::SeedInitial(RunState& run) {
  const uint32_t num_nodes = run.num_nodes;
  Tuple initial = run.job->initial_input();
  initial.resolve_epoch = run.fanout_epoch;
  if (initial.resolve_local) {
    run.inflight.Add(num_nodes);
    for (uint32_t n = 0; n < num_nodes; ++n) {
      Dispatch(run, n, 0, Tuple(initial));
    }
  } else {
    run.inflight.Add();
    Dispatch(run, 0, 0, std::move(initial));
  }
}

JobResult AsyncExecutor::CollectResult(RunState& run) const {
  JobResult jr;
  jr.metrics = MetricsSnapshot::From(run.metrics, run.watch.ElapsedMillis());
  for (const CounterShard& shard : run.shards) shard.FoldInto(&jr.metrics);
  jr.metrics.job_id = run.job_id;
  if (run.recorder != nullptr) {
    auto log = std::make_shared<obs::TraceLog>();
    log->job_id = run.job_id;
    log->job_name = run.job_name;
    log->executor = name_;
    log->spans = run.recorder->Collect();
    jr.trace = std::move(log);
  }
  return jr;
}

void AsyncExecutor::FinalizeRun(const std::shared_ptr<RunState>& run) {
  // Runs on whichever thread drove the in-flight count to zero — a worker
  // delivering the last completion, or the submitting thread when the run
  // finished during setup. Zero tasks, continuations, or device ops remain:
  // every suspended frame held an in-flight reference until its completion
  // was consumed (hedge arms via RetainIo), so count == 0 is quiescence.
  std::optional<StatusOr<JobResult>> result;
  if (run->cancel->cancelled()) {
    result.emplace(run->cancel->cause());
  } else {
    result.emplace(CollectResult(*run));
  }
  {
    // After this, the deadline watchdog stands down: the caller may destroy
    // its CancelToken as soon as on_done returns.
    std::lock_guard<std::mutex> lock(run->finalize_mutex);
    run->finalized = true;
  }
  run->on_done(std::move(*result));
}

std::shared_ptr<AsyncExecutor::RunState> AsyncExecutor::NewRun(
    const Job& job, const ResultSink& sink, CancelToken* cancel,
    size_t shards) {
  auto run = std::make_shared<RunState>();
  run->job = &job;
  run->job_name = job.name();
  run->job_id = obs::NextJobId();
  run->sink = sink;
  run->cancel = cancel != nullptr ? cancel : &run->owned_cancel;
  run->metrics.InitStages(job.num_stages());
  run->shards = std::vector<CounterShard>(shards);
  for (CounterShard& shard : run->shards) {
    shard.per_stage.resize(job.num_stages());
  }
  const uint64_t run_seq = run_seq_.fetch_add(1, std::memory_order_relaxed);
  if (options_.trace_sample_n > 0 && run_seq % options_.trace_sample_n == 0) {
    run->recorder = std::make_unique<obs::TraceRecorder>(run->job_id);
    run->trace = run->recorder.get();
  }
  run->num_nodes = cluster_->num_nodes();
  run->fanout_epoch = cluster_->placement_epoch();
  return run;
}

void AsyncExecutor::Submit(const Job& job, const ResultSink& sink,
                           CancelToken* cancel, SubmitDone done) {
  if (options_.deterministic_seed != 0) {
    // Deterministic replay runs on the calling thread by design.
    done(Execute(job, sink, cancel));
    return;
  }
  std::shared_ptr<RunState> run = NewRun(job, sink, cancel, workers_.size());
  run->on_done = std::move(done);
  run->runtime = std::make_unique<Runtime>(this, run.get());
  run->cqs.reserve(run->num_nodes);
  for (uint32_t n = 0; n < run->num_nodes; ++n) {
    // Listener mode: completions are handed off, never run in place, so
    // the device stack never re-enters itself. One delivered inline on a
    // submitting worker stays with that worker; one from the device timer
    // thread goes to the shared queue.
    run->cqs.push_back(std::make_unique<sim::CompletionQueue>(
        [this](const sim::Completion& c) { Handoff(c); }));
  }
  // Run guard: hold the count above zero across seeding AND arming so the
  // completion callback cannot fire mid-setup (the race-free pattern
  // documented on InflightTracker::NotifyOnZero).
  run->inflight.Add();
  SeedInitial(*run);
  run->inflight.NotifyOnZero([this, run]() { FinalizeRun(run); });
  if (options_.deadline_ms > 0) {
    std::weak_ptr<RunState> weak = run;
    const uint64_t deadline_ms = options_.deadline_ms;
    timers_.After(deadline_ms * 1000, [weak, deadline_ms]() {
      if (auto r = weak.lock()) {
        r->CancelFromWatchdog(Status::DeadlineExceeded(
            "job '" + r->job_name + "' exceeded deadline of " +
            std::to_string(deadline_ms) + "ms"));
      }
    });
  }
  run->inflight.Done();  // drop the guard; the run may finalize any time
}

StatusOr<JobResult> AsyncExecutor::Execute(const Job& job,
                                           const ResultSink& sink,
                                           CancelToken* cancel) {
  if (options_.deterministic_seed != 0) {
    return ExecuteDeterministic(job, sink, cancel);
  }
  std::mutex mutex;
  std::condition_variable cv;
  std::optional<StatusOr<JobResult>> result;
  Submit(job, sink, cancel, [&](StatusOr<JobResult> r) {
    // Notify while holding the lock: the waiter owns `cv` on its stack and
    // destroys it as soon as it sees the predicate, so an unlocked notify
    // could race with that destruction.
    std::lock_guard<std::mutex> lock(mutex);
    result = std::move(r);
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait(lock, [&] { return result.has_value(); });
  return std::move(*result);
}

StatusOr<JobResult> AsyncExecutor::ExecuteDeterministic(const Job& job,
                                                        const ResultSink& sink,
                                                        CancelToken* cancel) {
  // One thread, so one counter shard.
  std::shared_ptr<RunState> run = NewRun(job, sink, cancel, 1);
  // Pull-mode completion queues (no listener) + per-node task queues: the
  // seeded driver below picks the delivery order. No runtime: stage
  // functions see ctx.async == nullptr and skip hedging.
  run->cqs.reserve(run->num_nodes);
  run->det_queues.reserve(run->num_nodes);
  for (uint32_t n = 0; n < run->num_nodes; ++n) {
    run->cqs.push_back(std::make_unique<sim::CompletionQueue>());
    run->det_queues.push_back(std::make_unique<MpmcQueue<TaskFrame*>>());
  }
  SeedInitial(*run);
  RunDeterministic(*run);
  for (auto& queue : run->det_queues) queue->Close();
  if (run->cancel->cancelled()) return run->cancel->cause();
  return CollectResult(*run);
}

void AsyncExecutor::RunDeterministic(RunState& run) {
  // One thread, one PRNG, TWO source kinds per node: the task queue and the
  // completion queue. The seed therefore permutes not only which task runs
  // next but also the ORDER asynchronous device completions are delivered
  // relative to task starts and to each other — every interleaving is a
  // valid schedule of the same DAG, and identical seeds replay identically
  // (exactly reproducible when device timing is disabled; a live timer
  // thread perturbs only WHEN completions become visible, never their
  // per-op results).
  Random rng(options_.deterministic_seed);
  StopWatch watch;
  struct Source {
    bool is_completion;
    uint32_t node;
  };
  std::vector<Source> ready;
  for (;;) {
    if (options_.deadline_ms > 0 && !run.Failed() &&
        watch.ElapsedMillis() >= static_cast<double>(options_.deadline_ms)) {
      run.cancel->Cancel(Status::DeadlineExceeded(
          "job '" + run.job_name + "' exceeded deadline of " +
          std::to_string(options_.deadline_ms) + "ms"));
    }
    ready.clear();
    for (uint32_t n = 0; n < run.num_nodes; ++n) {
      if (!run.det_queues[n]->empty()) ready.push_back(Source{false, n});
      if (!run.cqs[n]->empty()) ready.push_back(Source{true, n});
    }
    if (ready.empty()) {
      if (run.inflight.count() == 0) break;
      // Suspended frames with no deliverable completion: a timed device op
      // is pending on the cluster's timer thread. Poll until it lands.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      continue;
    }
    const Source src = ready[rng.Uniform(ready.size())];
    if (src.is_completion) {
      if (auto c = run.cqs[src.node]->TryPop()) {
        sim::DeliverCallbackTag(*c);
      }
    } else if (auto frame = run.det_queues[src.node]->TryPop()) {
      RunTaskAsync(*frame);
    }
  }
  LH_CHECK_MSG(run.inflight.count() == 0,
               "deterministic async schedule drained with work in flight");
}

}  // namespace lakeharbor::rede
