#pragma once

#include <cstddef>
#include <cstdint>

#include "common/retry.h"
#include "rede/hedge.h"
#include "rede/record_cache.h"

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

/// Which SMPE executor Engine builds. There is one engine: both run every
/// dereference as a continuation state machine on `async_workers` CPU
/// workers, charge the identical simulated cost model and produce
/// bit-identical result checksums. They differ only in a per-node cap:
///   - kThreaded: SmpeExecutor, at most `threads_per_node` tasks of a node
///     run at once (the paper's per-node pool size; the default);
///   - kAsync: AsyncExecutor, uncapped — a suspended dereference holds one
///     continuation frame and nothing else, so in-flight depth is bounded
///     by the job's fan-out alone.
enum class SmpeEngine {
  kThreaded,
  kAsync,
};

/// Tuning knobs for scalable massively parallel execution.
struct SmpeOptions {
  /// Per-node cap of SmpeExecutor: at most this many tasks of one node run
  /// at once, shared by the executor's overlapping runs. A task holds its
  /// slot from start to finish, across retries and backoff timers, as a
  /// pool thread would; further tasks of the node wait in FIFO order. This
  /// is the paper's pool size, "adjusted based on … the IOPS of the IO
  /// path" (1000 per node in the prototype); we default lower for
  /// laptop-scale clusters and sweep it in the thread-pool ablation bench.
  /// It starts no thread. AsyncExecutor ignores it.
  size_t threads_per_node = 64;

  /// The paper's optimization: "ReDe does not switch threads for
  /// Referencers by default to avoid excessive context switching". When
  /// true, a Referencer runs inline on the thread that produced its input;
  /// when false, every Referencer invocation is a separate task.
  bool inline_referencers = true;

  /// Per-task retry of Dereferencer failures whose Status is retryable
  /// (kIoError / kUnavailable / kResourceExhausted): the failed invocation
  /// is re-executed after exponential backoff, and its earlier partial
  /// emissions are discarded, so a retried task remains exactly-once with
  /// respect to downstream stages. Permanent errors (and exhausted retries)
  /// fail the job fast. Disabled by default — the pre-existing fail-fast
  /// semantics.
  RetryPolicy retry;

  /// Same-partition pointer coalescing (off by default).
  DerefBatchOptions batch;

  /// Node-local record cache consulted by Dereferencers (off by default).
  /// One cache per executor, shared across that executor's runs — files are
  /// immutable after Seal(), so entries never go stale.
  RecordCacheOptions cache;

  /// Hedged reads against a second replica when the primary is slow (off
  /// by default). The hedge deadline is a timer of the run's runtime, and
  /// each arm in flight pins the run, not a slot of the per-node cap (no
  /// thread per hedge). Under deterministic_seed schedules are
  /// single-threaded and never race, so the knob is ignored there; the
  /// partitioned executor never hedges.
  HedgeOptions hedge;

  /// Wall-clock deadline of one Execute() call in milliseconds (0 = no
  /// deadline). On expiry the run's CancelToken flips: queued tasks drain
  /// without executing, in-flight ones finish their current attempt, and
  /// Execute returns kDeadlineExceeded with zero leaked tasks. Promptness
  /// is bounded by the longest single device operation plus one retry
  /// backoff interval.
  uint64_t deadline_ms = 0;

  /// When nonzero, Execute() runs single-threaded on the calling thread,
  /// picking the next task or device completion from a seeded PRNG over the
  /// nonempty node queues. The same seed replays the same interleaving
  /// exactly (device timing off); different seeds explore different (but
  /// valid) schedules. No worker runs and the per-node cap is ignored. For
  /// tests.
  uint64_t deterministic_seed = 0;

  /// Engine selection (see SmpeEngine): Engine consults this when building
  /// its SMPE-mode executor. The capped engine is the default.
  SmpeEngine engine = SmpeEngine::kThreaded;

  /// CPU worker threads of either engine (0 = hardware concurrency). They
  /// run task steps and continuations; a suspended dereference holds no
  /// worker, so this does NOT bound in-flight dereferences. A blocking
  /// stage function (one without a continuation form) holds its worker for
  /// the whole call.
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

}  // namespace lakeharbor::rede
