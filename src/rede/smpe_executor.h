#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "common/retry.h"
#include "concurrent/inflight_tracker.h"
#include "concurrent/mpmc_queue.h"
#include "concurrent/thread_pool.h"
#include "rede/executor.h"
#include "rede/hedge.h"
#include "rede/record_cache.h"
#include "sim/cluster.h"

namespace lakeharbor::rede {

/// Dereference batching: coalesce same-partition keyed pointers emitted by
/// one task's cascade into a single fused batch read (one seek plus cheap
/// follow-ups) instead of one task — and one random read — per pointer.
/// Off by default; broadcast and localized tuples are never batched.
struct DerefBatchOptions {
  bool enabled = false;
  /// Largest fused batch; bigger same-partition groups are split. Bounds
  /// both the single-task latency and the blast radius of a batch retry.
  size_t max_batch_size = 64;
};

/// Which SMPE engine executes the job graph. Both charge the identical
/// simulated cost model and produce bit-identical result checksums:
///   - kThreaded: one parked pool thread per in-flight dereference (the
///     baseline; per-node thread pools, blocking device charges);
///   - kAsync: explicit continuation state machines over a small fixed
///     worker pool — thousands of in-flight dereferences cost one
///     continuation frame each instead of one blocked thread.
enum class SmpeEngine {
  kThreaded,
  kAsync,
};

/// Tuning knobs for scalable massively parallel execution.
struct SmpeOptions {
  /// Worker threads per simulated node. The paper's engine defaults to 1000
  /// threads per node; we default lower for laptop-scale clusters and sweep
  /// this knob in the thread-pool ablation bench.
  size_t threads_per_node = 64;

  /// The paper's optimization: "ReDe does not switch threads for
  /// Referencers by default to avoid excessive context switching". When
  /// true, a Referencer runs inline on the thread that produced its input;
  /// when false, every Referencer invocation is a separate pool task.
  bool inline_referencers = true;

  /// Per-task retry of Dereferencer failures whose Status is retryable
  /// (kIoError / kUnavailable / kResourceExhausted): the failed invocation
  /// is re-executed on the same thread after exponential backoff, and its
  /// earlier partial emissions are discarded, so a retried task remains
  /// exactly-once with respect to downstream stages. Permanent errors (and
  /// exhausted retries) fail the job fast. Disabled by default — the
  /// pre-existing fail-fast semantics.
  RetryPolicy retry;

  /// Same-partition pointer coalescing (off by default).
  DerefBatchOptions batch;

  /// Node-local record cache consulted by Dereferencers (off by default).
  /// One cache per executor, shared across that executor's runs — files are
  /// immutable after Seal(), so entries never go stale.
  RecordCacheOptions cache;

  /// Hedged reads against a second replica when the primary is slow (off
  /// by default). Both engines run the same hedge protocol: the async
  /// engine on its run's runtime, the threaded engine on a driver local to
  /// each dereference task, on the task's pool thread (no thread per
  /// hedge; the task lands its loser arm before it completes). Under
  /// deterministic_seed schedules are single-threaded and never race, so
  /// the knob is ignored there; the partitioned executor never hedges.
  HedgeOptions hedge;

  /// Wall-clock deadline of one Execute() call in milliseconds (0 = no
  /// deadline). On expiry the run's CancelToken flips: queued tasks drain
  /// without executing, in-flight ones finish their current attempt, and
  /// Execute returns kDeadlineExceeded with zero leaked tasks. Promptness
  /// is bounded by the longest single device operation plus one retry
  /// backoff interval.
  uint64_t deadline_ms = 0;

  /// When nonzero, Execute() runs single-threaded on the calling thread,
  /// picking the next task from a seeded PRNG over the nonempty node
  /// queues. The same seed replays the same interleaving exactly; different
  /// seeds explore different (but valid) schedules. No dispatcher threads
  /// or pools are used. For tests.
  uint64_t deterministic_seed = 0;

  /// Engine selection (see SmpeEngine). The threaded engine remains the
  /// default/baseline; Engine consults this when building its SMPE-mode
  /// executor.
  SmpeEngine engine = SmpeEngine::kThreaded;

  /// Worker threads of the async engine's shared pool (0 = hardware
  /// concurrency). Unlike threads_per_node this does NOT bound in-flight
  /// dereferences — a suspended state machine holds no worker.
  size_t async_workers = 0;

  /// Per-job trace sampling: 0 disables tracing entirely (the default — the
  /// hot path then performs no span work and no allocations), 1 traces
  /// every job, N traces every Nth Execute() call. A traced job records a
  /// span for every stage invocation, dereference batch, queue wait,
  /// retry-backoff sleep, failover hop, and hedge arm; the trace rides back
  /// on JobResult::trace (export with obs::ToChromeTraceJson, profile with
  /// rede::ProfileOf).
  uint64_t trace_sample_n = 0;
};

/// Scalable Massively Parallel Execution (Algorithm 1).
///
/// The job is distributed to every node. Each node owns an input queue of
/// fine-grained tasks {stage, tuple}; a dispatcher thread drains the queue
/// and hands tasks to the node's thread pool, so executing one function
/// never blocks the execution of other stages and functions. Emissions are
/// routed by the data itself:
///   - next stage is a Referencer (inline mode): run immediately, cascade;
///   - tuple carries partition information: stay on the emitting node (the
///     Dereferencer performs the possibly-remote fetch);
///   - tuple carries none: replicate to every node's queue marked LOCAL
///     (broadcast, lines 28-33).
/// Completion is detected by an in-flight task tracker reaching zero.
///
/// Thread pools are created once per executor and reused across jobs, as in
/// the prototype ("manages threads in a thread pool and reuses them").
class SmpeExecutor final : public Executor {
 public:
  SmpeExecutor(sim::Cluster* cluster, SmpeOptions options);
  ~SmpeExecutor() override;
  LH_DISALLOW_COPY_AND_ASSIGN(SmpeExecutor);

  const std::string& name() const override { return name_; }
  const SmpeOptions& options() const { return options_; }

  using Executor::Execute;
  StatusOr<JobResult> Execute(const Job& job, const ResultSink& sink,
                              CancelToken* cancel) override;

  /// The executor's record cache, or nullptr when caching is disabled.
  RecordCache* record_cache() const { return cache_.get(); }

 private:
  /// A fine-grained unit of work: one tuple normally, or a coalesced batch
  /// of same-partition keyed tuples when batching is enabled.
  /// `enqueue_us` is stamped when the task enters a node queue, so the
  /// dequeueing thread can attribute queue dwell.
  struct Task {
    size_t stage;
    std::vector<Tuple> tuples;
    int64_t enqueue_us = 0;
  };
  struct RunState;  // per-Execute state; defined in .cc

  void RunTask(RunState& state, sim::NodeId node, Task task) const;
  void Route(RunState& state, sim::NodeId node, size_t next_stage,
             std::vector<Tuple>&& tuples) const;
  void SeedInitial(RunState& state) const;
  /// Single-threaded seeded-schedule drain (deterministic_seed != 0).
  void RunDeterministic(RunState& state) const;

  /// Stable per-node pool pointers for a run over `num_nodes` nodes,
  /// lazily growing `pools_` when the cluster gained nodes since the last
  /// run (elastic membership). Pools are only ever appended, never
  /// destroyed, so the returned raw pointers stay valid for the run even
  /// while a concurrent Execute grows the vector.
  std::vector<ThreadPool*> SnapshotPools(uint32_t num_nodes);

  std::string name_ = "rede-smpe";
  sim::Cluster* cluster_;
  SmpeOptions options_;
  /// One pool per node; guarded by pools_mutex_ for elastic growth.
  mutable std::mutex pools_mutex_;
  mutable std::vector<std::unique_ptr<ThreadPool>> pools_;
  std::unique_ptr<RecordCache> cache_;  // nullptr unless cache.enabled
  /// Monotonic Execute() counter driving per-job trace sampling.
  std::atomic<uint64_t> run_seq_{0};
};

}  // namespace lakeharbor::rede
