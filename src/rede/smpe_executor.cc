#include "rede/smpe_executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "common/cancel.h"
#include "common/clock.h"
#include "common/random.h"
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

/// Emit the queue-wait span of a dequeued task (traced runs only).
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

/// Continuation runtime of one task of a hedging run. The dereference runs
/// as its state machine on the task's own pool thread: device completions
/// land on a listener-mode queue that appends them to a ready list, hedge
/// deadlines are timers on a local list, and the pool thread runs both —
/// waiting on a condition variable in between — until the state machine is
/// done. Nothing is spawned and nothing outlives the task: before the task
/// releases its in-flight count it drives until every retained loser arm
/// has landed. Timers still pending then are dropped unrun; the hedge
/// deadline is the only one, and it is moot once its read was adopted.
class TaskDriver final : public AsyncRuntime {
 public:
  // Completions arrive on the device timer thread, or on this thread while
  // it submits (timing off); either way they only queue up here. Notify
  // under the lock: the driver is destroyed as soon as the pool thread sees
  // the last completion.
  TaskDriver()
      : cq_([this](const sim::Completion& c) {
          std::lock_guard<std::mutex> lock(mutex_);
          ready_.push_back(c);
          cv_.notify_one();
        }) {}
  LH_DISALLOW_COPY_AND_ASSIGN(TaskDriver);

  sim::CompletionQueue* completion_queue() { return &cq_; }

  // After, RetainIo and ReleaseIo run only on the pool thread: at
  // submission, or in a completion or timer this driver runs.
  void After(uint64_t delay_us, std::function<void()> fn) override {
    timers_.push_back(
        Timer{NowMicros() + static_cast<int64_t>(delay_us), std::move(fn)});
  }
  void RetainIo() override { ++retained_; }
  void ReleaseIo() override { --retained_; }

  /// One dereference attempt, driven to completion on this thread.
  Status Run(const StageFunction& fn, const ExecContext& ctx,
             const std::vector<Tuple>& tuples, std::vector<Tuple>* outs) {
    Status status;
    bool finished = false;
    auto done = [&status, &finished](Status s) {
      status = std::move(s);
      finished = true;
    };
    if (tuples.size() > 1) {
      fn.ExecuteBatchAsync(ctx, tuples, outs, done);
    } else {
      fn.ExecuteAsync(ctx, tuples.front(), outs, done);
    }
    DriveUntil([&finished] { return finished; });
    return status;
  }

  /// Drive until every retained loser arm has landed.
  void Drain() {
    DriveUntil([this] { return retained_ == 0; });
  }

 private:
  struct Timer {
    int64_t due_us;
    std::function<void()> fn;
  };

  template <typename Stop>
  void DriveUntil(const Stop& stop) {
    while (!stop()) {
      auto next = std::min_element(
          timers_.begin(), timers_.end(),
          [](const Timer& a, const Timer& b) { return a.due_us < b.due_us; });
      const int64_t wait_us =
          next == timers_.end() ? 0 : next->due_us - NowMicros();
      if (next != timers_.end() && wait_us <= 0) {
        std::function<void()> fn = std::move(next->fn);
        timers_.erase(next);
        fn();
        continue;
      }
      std::optional<sim::Completion> completion;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        const auto has_ready = [this] { return !ready_.empty(); };
        if (next == timers_.end()) {
          cv_.wait(lock, has_ready);
        } else if (!cv_.wait_for(lock, std::chrono::microseconds(wait_us),
                                 has_ready)) {
          continue;  // the timer fell due first
        }
        completion = std::move(ready_.front());
        ready_.pop_front();
      }
      sim::DeliverCallbackTag(*completion);
    }
  }

  sim::CompletionQueue cq_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<sim::Completion> ready_;  // guarded by mutex_
  std::vector<Timer> timers_;
  size_t retained_ = 0;
};
}  // namespace

/// All state of one Execute() call. Kept off the executor object so that
/// concurrent Execute() calls (sharing only the immutable pools) are safe.
struct SmpeExecutor::RunState {
  const Job* job = nullptr;
  uint64_t job_id = 0;
  /// Node count CAPTURED at Execute start. The run's queues, dispatchers
  /// and broadcast fan-out all use this snapshot, never the live
  /// cluster->num_nodes(): a node joining mid-run becomes visible to the
  /// NEXT run, instead of indexing past this run's queues.
  uint32_t num_nodes = 0;
  /// Cluster placement epoch at Execute start, stamped on every broadcast
  /// tuple at fan-out: all nodes of this run resolve broadcast ownership
  /// against the same placement snapshot even when a rebalance commit
  /// races the run.
  uint64_t fanout_epoch = 0;
  /// Stable per-node pool pointers for this run (threaded mode only).
  std::vector<ThreadPool*> pools;
  /// Recorder of a sampled run, nullptr otherwise (the untraced fast path
  /// is this null check — no span work, no allocations).
  obs::TraceRecorder* trace = nullptr;
  ExecMetricsCounters metrics;
  InflightTracker inflight;
  std::vector<std::unique_ptr<MpmcQueue<Task>>> queues;

  std::mutex sink_mutex;
  ResultSink sink;

  /// Run-wide cooperative cancellation: the first permanent error, the
  /// deadline watchdog, OR an external Cancel() on an injected token flips
  /// it (first cause wins); every task checks it before executing, so
  /// queues drain without doing work, and retry backoffs wait on it so
  /// cancellation interrupts them mid-sleep. Points at `owned_cancel`
  /// unless the caller injected a token (scheduler-managed jobs).
  CancelToken* cancel = nullptr;
  CancelToken owned_cancel;

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
};

SmpeExecutor::SmpeExecutor(sim::Cluster* cluster, SmpeOptions options)
    : cluster_(cluster), options_(options) {
  LH_CHECK(cluster_ != nullptr);
  LH_CHECK_MSG(options_.threads_per_node > 0,
               "SMPE needs at least one thread per node");
  if (options_.deterministic_seed == 0) {
    // Seeded-schedule mode runs everything on the calling thread; pools
    // would only sit idle. Pools for nodes joining later are appended
    // lazily by SnapshotPools at the start of their first run.
    SnapshotPools(cluster_->num_nodes());
  }
  if (options_.cache.enabled) {
    cache_ = std::make_unique<RecordCache>(options_.cache);
  }
}

std::vector<ThreadPool*> SmpeExecutor::SnapshotPools(uint32_t num_nodes) {
  std::lock_guard<std::mutex> lock(pools_mutex_);
  while (pools_.size() < num_nodes) {
    pools_.push_back(std::make_unique<ThreadPool>(options_.threads_per_node));
  }
  std::vector<ThreadPool*> snapshot(num_nodes);
  for (uint32_t n = 0; n < num_nodes; ++n) snapshot[n] = pools_[n].get();
  return snapshot;
}

SmpeExecutor::~SmpeExecutor() = default;

void SmpeExecutor::RunTask(RunState& state, sim::NodeId node,
                           Task task) const {
  if (state.Failed()) {
    // Fail-fast drain: another task recorded a permanent error, so this one
    // is dropped unexecuted (it only balances the in-flight count).
    state.metrics.tasks_dropped_on_failure.fetch_add(1,
                                                     std::memory_order_relaxed);
    state.inflight.Done();
    return;
  }
  LH_CHECK(!task.tuples.empty());
  // Queue dwell: stamped at enqueue (Route/SeedInitial), measured here. The
  // histogram is always on; the span only exists on traced runs.
  const int64_t dequeue_us = NowMicros();
  if (task.enqueue_us > 0 && dequeue_us >= task.enqueue_us) {
    state.metrics.queue_dwell_us.Record(
        static_cast<uint64_t>(dequeue_us - task.enqueue_us));
  }
  RecordQueueWaitSpan(state.trace, task.stage, node, task.enqueue_us,
                      dequeue_us);
  const StageFunction& fn = *state.job->stages()[task.stage];
  ExecContext ctx{node, cluster_, &state.metrics, cache_.get()};
  ctx.cancel = state.cancel;
  ctx.trace = state.trace;
  ctx.stage = static_cast<uint32_t>(task.stage);
  // A hedging run drives each dereference as its state machine on this
  // pool thread (deterministic replay never hedges); otherwise Execute runs
  // the same state machine inline.
  std::optional<TaskDriver> driver;
  if (options_.deterministic_seed == 0 && options_.hedge.enabled) {
    driver.emplace();
    ctx.hedge = options_.hedge;
    ctx.completion_queue = driver->completion_queue();
    ctx.async = &*driver;
  }
  std::vector<Tuple> outs;
  Status status;
  size_t retry = 0;
  const bool batched = task.tuples.size() > 1;
  if (batched) {
    state.metrics.deref_batches.fetch_add(1, std::memory_order_relaxed);
    state.metrics.deref_batched_pointers.fetch_add(task.tuples.size(),
                                                   std::memory_order_relaxed);
    state.metrics.deref_batch_size.Record(task.tuples.size());
  }
  const int64_t work_start_us = dequeue_us;
  for (;;) {
    outs.clear();  // discard partial emissions of a failed attempt
    if (fn.IsDereferencer()) {
      state.metrics.deref_invocations.fetch_add(1, std::memory_order_relaxed);
      state.metrics.EnterDeref();
      // A failed ExecuteBatch invalidated its own cache admissions, so a
      // retry below re-reads the whole batch instead of re-admitting it.
      const int64_t attempt_start_us = NowMicros();
      if (driver.has_value()) {
        status = driver->Run(fn, ctx, task.tuples, &outs);
      } else {
        status = batched ? fn.ExecuteBatch(ctx, task.tuples, &outs)
                         : fn.Execute(ctx, task.tuples.front(), &outs);
      }
      const int64_t attempt_us = NowMicros() - attempt_start_us;
      state.metrics.deref_latency_us.Record(
          attempt_us > 0 ? static_cast<uint64_t>(attempt_us) : 0);
      state.metrics.ExitDeref();
    } else {
      // Referencer tasks are always singletons (Route never batches them).
      state.metrics.ref_invocations.fetch_add(1, std::memory_order_relaxed);
      status = fn.Execute(ctx, task.tuples.front(), &outs);
    }
    // Only Dereferencer failures can be transient (they touch devices);
    // Referencer errors are logic errors and always fail fast. Stop
    // retrying once some other task has already failed the job.
    if (status.ok() || !fn.IsDereferencer() || !status.IsRetryable() ||
        retry >= options_.retry.max_retries || state.Failed()) {
      break;
    }
    ++retry;
    // Jitter (seeded by job ⊕ node ⊕ stage) keeps concurrent jobs that hit
    // the same faulty device from retrying in lockstep; the default
    // jitter=0 policy reproduces the exact classic ladder.
    const uint64_t jitter_seed =
        state.job_id ^ (static_cast<uint64_t>(node) << 32) ^
        static_cast<uint64_t>(task.stage);
    const uint64_t backoff_us =
        options_.retry.JitteredBackoffUs(retry, jitter_seed);
    state.metrics.retries.fetch_add(1, std::memory_order_relaxed);
    state.metrics.retry_backoff_us.fetch_add(backoff_us,
                                             std::memory_order_relaxed);
    state.metrics.retry_backoff_hist_us.Record(backoff_us);
    if (backoff_us > 0) {
      const int64_t sleep_start_us = NowMicros();
      // Wait on the run's CancelToken, not an unconditional sleep: a
      // cancelled or deadline-exceeded job exits its backoff ladder within
      // one quantum instead of draining every remaining sleep.
      const bool interrupted = state.cancel->WaitFor(backoff_us);
      if (state.trace != nullptr) {
        obs::Span span;
        span.name = "retry-backoff";
        span.kind = obs::SpanKind::kRetryBackoff;
        span.stage = static_cast<uint32_t>(task.stage);
        span.node = node;
        span.t_start_us = sleep_start_us;
        span.t_end_us = NowMicros();
        span.AddAttr("retry", static_cast<int64_t>(retry));
        span.AddAttr("backoff_us", static_cast<int64_t>(backoff_us));
        if (interrupted) span.AddAttr("interrupted", 1);
        state.trace->Record(std::move(span));
      }
      if (interrupted) break;  // cancelled mid-backoff: drop the task now
    }
  }
  if (state.trace != nullptr) {
    // One work span per counted invocation: the profiler reconciles
    // successful work-span counts against CountStage's counters, so a span
    // of a failed task is marked and excluded rather than skipped.
    obs::Span span;
    span.name = fn.name();
    span.kind = batched ? obs::SpanKind::kDerefBatch
                : fn.IsDereferencer() ? obs::SpanKind::kDereference
                                      : obs::SpanKind::kReferencer;
    span.stage = static_cast<uint32_t>(task.stage);
    span.node = node;
    span.t_start_us = work_start_us;
    span.t_end_us = NowMicros();
    span.AddAttr("emitted", static_cast<int64_t>(outs.size()));
    span.AddAttr("attempts", static_cast<int64_t>(retry + 1));
    if (batched) span.AddAttr("batch", static_cast<int64_t>(task.tuples.size()));
    if (!status.ok()) span.AddAttr("failed", 1);
    state.trace->Record(std::move(span));
  }
  if (!status.ok()) {
    state.metrics.tasks_dropped_on_failure.fetch_add(1,
                                                     std::memory_order_relaxed);
    // Annotate with everything a post-mortem needs: which stage, which
    // function, which node, and how hard we tried.
    state.RecordError(status, "stage " + std::to_string(task.stage) + " (" +
                                  fn.name() + ") on node " +
                                  std::to_string(node) + " after " +
                                  std::to_string(retry + 1) + " attempts");
  } else {
    state.metrics.CountStage(task.stage, outs.size());
    Route(state, node, task.stage + 1, std::move(outs));
  }
  // A hedge loser still in flight pins the task: land it before the run can
  // see zero in flight and tear down.
  if (driver.has_value()) driver->Drain();
  state.inflight.Done();
}

void SmpeExecutor::Route(RunState& state, sim::NodeId node, size_t next_stage,
                         std::vector<Tuple>&& tuples) const {
  state.metrics.tuples_emitted.fetch_add(tuples.size(),
                                         std::memory_order_relaxed);
  // Explicit LIFO work stack instead of recursion: a chain of inline
  // Referencers used to cascade via recursive Route calls, growing the call
  // stack per stage per tuple; long Referencer chains (or wide fan-outs of
  // single-tuple cascades) could overflow the thread stack.
  struct Pending {
    size_t stage;
    Tuple tuple;
  };
  std::vector<Pending> work;
  work.reserve(tuples.size());
  // Keyed tuples destined for batchable Dereferencer stages are buffered
  // here across the WHOLE cascade (an index-scan → referencer chain can
  // emit hundreds of same-partition pointers one at a time) and flushed as
  // coalesced per-partition batch tasks at the end. Buffered tuples are not
  // yet registered in-flight, so the fail-fast early returns below drop
  // them without unbalancing the tracker.
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
      // on the emitting thread instead of round-tripping through the queue.
      ExecContext ctx{node, cluster_, &state.metrics};
      ctx.trace = state.trace;
      ctx.stage = static_cast<uint32_t>(pending.stage);
      std::vector<Tuple> outs;
      state.metrics.ref_invocations.fetch_add(1, std::memory_order_relaxed);
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
      state.metrics.CountStage(pending.stage, outs.size());
      state.metrics.tuples_emitted.fetch_add(outs.size(),
                                             std::memory_order_relaxed);
      for (auto it = outs.rbegin(); it != outs.rend(); ++it) {
        work.push_back(Pending{pending.stage + 1, std::move(*it)});
      }
      continue;
    }
    if (next_fn.IsDereferencer() && !pending.tuple.pointer.has_partition &&
        !pending.tuple.resolve_local && next_fn.WantsBroadcast()) {
      // Broadcast: replicate to every node's queue marked for local
      // resolution (Algorithm 1, lines 28-33). When the destination node is
      // down AND the stage's structure is replicated, the copy is REDIRECTED
      // instead of failing the job: it stays on the emitting node carrying
      // the down node's id as resolve_owner, so this node resolves the down
      // node's partitions on its behalf via replica failover. Ownership
      // stays static (every partition is covered exactly once) whatever the
      // outage timing. Unreplicated stages keep the seed behavior: a dead
      // destination fails the broadcast.
      state.metrics.broadcasts.fetch_add(1, std::memory_order_relaxed);
      const size_t bytes = ApproxTupleBytes(pending.tuple);
      const sim::NodeId last = state.num_nodes - 1;
      const bool replicated = next_fn.TargetReplication() > 1;
      for (sim::NodeId m = 0; m <= last; ++m) {
        sim::NodeId dest = m;
        uint32_t owner = Tuple::kResolveOnSelf;
        if (m != node) {
          if (replicated && cluster_->NodeIsDown(m)) {
            // Known-down destination: keep the copy here, no message.
            dest = node;
            owner = m;
            state.metrics.broadcast_redirects.fetch_add(
                1, std::memory_order_relaxed);
          } else {
            // The self-node replica is a local enqueue, not a message.
            Status status = cluster_->ChargeMessage(node, m, bytes);
            if (!status.ok()) {
              if (replicated && status.IsUnavailable()) {
                // Outage raced the liveness check: redirect all the same.
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
        // The last replica takes the tuple by move; only the first
        // num_nodes-1 replicas pay a deep copy.
        Tuple copy = (m == last) ? std::move(pending.tuple) : pending.tuple;
        copy.resolve_local = true;
        copy.resolve_owner = owner;
        copy.resolve_epoch = state.fanout_epoch;
        state.inflight.Add();
        if (!state.queues[dest]->Push(
                Task{pending.stage, {std::move(copy)}, NowMicros()})) {
          // Queue already closed (shutdown): the task will never run, so
          // balance the in-flight count or AwaitZero() hangs forever.
          state.inflight.Done();
        }
      }
      continue;
    }
    if (options_.batch.enabled && next_fn.IsDereferencer() &&
        !pending.tuple.is_range && pending.tuple.pointer.has_partition &&
        next_fn.SupportsBatchedDereference()) {
      batch_buffer[pending.stage].push_back(std::move(pending.tuple));
      continue;
    }
    // Keyed (or already-localized) tuple: the task stays on the emitting
    // node; its Dereferencer performs the possibly-remote fetch.
    state.inflight.Add();
    if (!state.queues[node]->Push(
            Task{pending.stage, {std::move(pending.tuple)}, NowMicros()})) {
      state.inflight.Done();  // rejected enqueue: balance or deadlock
    }
  }
  for (auto& [stage, buffered] : batch_buffer) {
    if (state.Failed()) return;
    const StageFunction& fn = *state.job->stages()[stage];
    for (PointerBatch& batch : CoalesceByPartition(
             std::move(buffered), fn, options_.batch.max_batch_size)) {
      state.inflight.Add();
      if (!state.queues[node]->Push(
              Task{stage, std::move(batch.tuples), NowMicros()})) {
        state.inflight.Done();
      }
    }
  }
}

void SmpeExecutor::SeedInitial(RunState& state) const {
  // Seed: a broadcast initial input (the common case — e.g. a range over a
  // local secondary index; resolve_local was set by JobBuilder::Build)
  // starts on every node; a keyed or partition-pruning one is one task.
  const uint32_t num_nodes = state.num_nodes;
  Tuple initial = state.job->initial_input();
  initial.resolve_epoch = state.fanout_epoch;
  if (initial.resolve_local) {
    state.inflight.Add(num_nodes);
    for (uint32_t n = 0; n < num_nodes; ++n) {
      if (!state.queues[n]->Push(Task{0, {initial}, NowMicros()})) {
        state.inflight.Done();
      }
    }
  } else {
    state.inflight.Add();
    if (!state.queues[0]->Push(Task{0, {std::move(initial)}, NowMicros()})) {
      state.inflight.Done();
    }
  }
}

void SmpeExecutor::RunDeterministic(RunState& state) const {
  // One thread, one PRNG: repeatedly pick a uniformly random nonempty node
  // queue and run its head task to completion (including its inline
  // cascade). Every interleaving this explores is a prefix-respecting
  // serialization of the real executor's task DAG, and the same seed walks
  // the same sequence exactly.
  Random rng(options_.deterministic_seed);
  StopWatch watch;
  std::vector<uint32_t> ready;
  for (;;) {
    // Single-threaded mode has no watchdog thread; the scheduling loop
    // checks the deadline between tasks instead. Expiry flips the token and
    // the remaining tasks drain through RunTask's fail-fast path.
    if (options_.deadline_ms > 0 && !state.Failed() &&
        watch.ElapsedMillis() >= static_cast<double>(options_.deadline_ms)) {
      state.cancel->Cancel(Status::DeadlineExceeded(
          "job '" + state.job->name() + "' exceeded deadline of " +
          std::to_string(options_.deadline_ms) + "ms"));
    }
    ready.clear();
    for (uint32_t n = 0; n < state.queues.size(); ++n) {
      if (!state.queues[n]->empty()) ready.push_back(n);
    }
    if (ready.empty()) break;  // no queued tasks ⇒ nothing in flight either
    uint32_t n = ready[rng.Uniform(ready.size())];
    if (auto task = state.queues[n]->TryPop()) {
      RunTask(state, n, std::move(*task));
    }
  }
  LH_CHECK_MSG(state.inflight.count() == 0,
               "deterministic schedule drained with tasks still in flight");
}

StatusOr<JobResult> SmpeExecutor::Execute(const Job& job,
                                          const ResultSink& sink,
                                          CancelToken* cancel) {
  StopWatch watch;
  RunState state;
  state.job = &job;
  state.job_id = obs::NextJobId();
  state.sink = sink;
  state.cancel = cancel != nullptr ? cancel : &state.owned_cancel;
  state.metrics.InitStages(job.num_stages());
  // Per-JOB sampling: either the whole run is traced (so profiles reconcile
  // exactly against the run's counters) or no recorder exists at all and
  // tracing costs one null check per task.
  const uint64_t run_seq = run_seq_.fetch_add(1, std::memory_order_relaxed);
  std::unique_ptr<obs::TraceRecorder> recorder;
  if (options_.trace_sample_n > 0 && run_seq % options_.trace_sample_n == 0) {
    recorder = std::make_unique<obs::TraceRecorder>(state.job_id);
    state.trace = recorder.get();
  }
  const uint32_t num_nodes = cluster_->num_nodes();
  state.num_nodes = num_nodes;
  state.fanout_epoch = cluster_->placement_epoch();
  state.queues.reserve(num_nodes);
  for (uint32_t n = 0; n < num_nodes; ++n) {
    state.queues.push_back(std::make_unique<MpmcQueue<Task>>());
  }

  if (options_.deterministic_seed != 0) {
    SeedInitial(state);
    RunDeterministic(state);
    for (auto& queue : state.queues) queue->Close();
  } else {
    state.pools = SnapshotPools(num_nodes);
    // Dispatchers: one per node, handing queued tasks to the node's pool so
    // that executing a function never blocks dequeueing (Fig 6's model).
    std::vector<std::thread> dispatchers;
    dispatchers.reserve(num_nodes);
    for (uint32_t n = 0; n < num_nodes; ++n) {
      dispatchers.emplace_back([this, &state, n] {
        while (auto task = state.queues[n]->Pop()) {
          bool submitted = state.pools[n]->Submit(
              [this, &state, n, t = std::move(*task)]() mutable {
                RunTask(state, n, std::move(t));
              });
          if (!submitted) {
            // Pool shut down under us: the task will never run; balance the
            // in-flight count registered at enqueue time or AwaitZero()
            // hangs.
            state.metrics.tasks_dropped_on_failure.fetch_add(
                1, std::memory_order_relaxed);
            state.inflight.Done();
          }
        }
      });
    }

    SeedInitial(state);

    // Deadline watchdog: waits on a cv (no polling) for either deadline
    // expiry — then flips the run's CancelToken — or run completion.
    std::thread watchdog;
    std::mutex done_mutex;
    std::condition_variable done_cv;
    bool run_done = false;
    if (options_.deadline_ms > 0) {
      watchdog = std::thread([&] {
        std::unique_lock<std::mutex> lock(done_mutex);
        const bool completed = done_cv.wait_for(
            lock, std::chrono::milliseconds(options_.deadline_ms),
            [&] { return run_done; });
        if (!completed) {
          state.cancel->Cancel(Status::DeadlineExceeded(
              "job '" + job.name() + "' exceeded deadline of " +
              std::to_string(options_.deadline_ms) + "ms"));
        }
      });
    }

    state.inflight.AwaitZero();
    if (watchdog.joinable()) {
      {
        std::lock_guard<std::mutex> lock(done_mutex);
        run_done = true;
      }
      done_cv.notify_all();
      watchdog.join();
    }
    for (auto& queue : state.queues) queue->Close();
    for (auto& dispatcher : dispatchers) dispatcher.join();
  }
  // Cache activity was charged per call site into state.metrics by the
  // dereferencers (builtin_derefs.cc), so the counters are exact for THIS
  // run even with other Execute() calls overlapping on the shared cache.

  if (state.cancel->cancelled()) return state.cancel->cause();
  JobResult result;
  result.metrics = MetricsSnapshot::From(state.metrics, watch.ElapsedMillis());
  result.metrics.job_id = state.job_id;
  if (recorder != nullptr) {
    auto log = std::make_shared<obs::TraceLog>();
    log->job_id = state.job_id;
    log->job_name = job.name();
    log->executor = name_;
    log->spans = recorder->Collect();
    result.trace = std::move(log);
  }
  return result;
}

}  // namespace lakeharbor::rede
