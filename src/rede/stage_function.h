#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "io/pointer.h"
#include "obs/trace.h"
#include "rede/hedge.h"
#include "rede/metrics.h"
#include "rede/tuple.h"
#include "sim/cluster.h"
#include "sim/completion_queue.h"

namespace lakeharbor::rede {

class RecordCache;

/// Minimal runtime surface an executor exposes to stage functions running
/// in continuation-passing style:
///  - After() schedules a delayed continuation (hedge deadlines);
///  - RetainIo()/ReleaseIo() pin the runtime against teardown for an I/O
///    whose completion outlives its task's logical result — the hedge loser
///    arm — so no continuation frame is ever leaked.
/// Provided per run by the SMPE engine (capped or not); a pin holds the
/// run, never a slot of the per-node cap. Null in deterministic replay, in
/// the partitioned executor and in inline Execute calls, which therefore
/// never hedge.
class AsyncRuntime {
 public:
  virtual ~AsyncRuntime() = default;
  virtual void After(uint64_t delay_us, std::function<void()> fn) = 0;
  virtual void RetainIo() = 0;
  virtual void ReleaseIo() = 0;
};

/// Per-invocation execution context: which simulated node the function is
/// running on (determines locality of charged I/O) plus shared counters.
struct ExecContext {
  sim::NodeId node = 0;
  sim::Cluster* cluster = nullptr;
  ExecMetricsCounters* metrics = nullptr;
  /// Node-local record cache, or nullptr when caching is disabled.
  /// Dereferencers consult it before touching simulated storage.
  RecordCache* record_cache = nullptr;
  /// Hedged-read knobs; hedging is off unless the executor enables it AND
  /// supplies an AsyncRuntime (`async` below).
  HedgeOptions hedge{};
  /// Run-wide cancellation token, or nullptr when the executor does not
  /// support cooperative cancellation. Long-running stage functions should
  /// poll it and bail out early with its cause.
  const CancelToken* cancel = nullptr;
  /// Trace recorder of a traced run, or nullptr (the common case — tracing
  /// is sampled per job, see SmpeOptions::trace_sample_n). Stage functions
  /// emit failover/hedge spans through it; `stage` tells them which job
  /// stage the invocation belongs to.
  obs::TraceRecorder* trace = nullptr;
  uint32_t stage = 0;
  /// Async execution surface: the completion queue device charges deliver
  /// into, and the continuation runtime. With a null `completion_queue`
  /// every io read is a blocking read — io::File's async call with a null
  /// queue, which lands on the calling thread before it returns — so an
  /// ExecuteAsync call finishes, `done` included, before it returns. The
  /// built-in dereferencers' Execute is exactly that call.
  sim::CompletionQueue* completion_queue = nullptr;
  AsyncRuntime* async = nullptr;
};

/// Base of the two function kinds composing a ReDe job (§III-B). The
/// executor dispatches on IsDereferencer(): Dereferencers incur I/O and run
/// as tasks of their own; Referencers are CPU-cheap and by default run
/// inline on the emitting thread ("ReDe does not switch threads for
/// Referencers").
class StageFunction {
 public:
  virtual ~StageFunction() = default;

  virtual bool IsDereferencer() const = 0;
  virtual const std::string& name() const = 0;

  /// How the executor should treat an incoming tuple WITHOUT partition
  /// information. True (default): replicate it to every node for local
  /// resolution (the paper's broadcast). False: keep it on one node — the
  /// function can locate the relevant partitions itself (e.g. a range
  /// dereference over a range-partitioned structure prunes to the
  /// partitions its key range intersects).
  virtual bool WantsBroadcast() const { return true; }

  /// Replication factor of the structure this stage resolves against
  /// (1 for Referencers and unreplicated files). The executor uses it to
  /// decide whether a broadcast copy whose target node is down can be
  /// redirected — with replicas, another node can resolve the down node's
  /// partitions on its behalf; without, the broadcast must fail.
  virtual uint32_t TargetReplication() const { return 1; }

  /// Consume one input tuple, append emitted tuples to `out`. Emissions
  /// feed the next stage (or the job output when this is the last stage).
  virtual Status Execute(const ExecContext& ctx, const Tuple& input,
                         std::vector<Tuple>* out) const = 0;

  /// True when this stage can resolve many keyed point tuples in one fused
  /// invocation. The executor then groups enqueued tuples by
  /// PartitionOfPointer() and dispatches one ExecuteBatch per group.
  virtual bool SupportsBatchedDereference() const { return false; }

  /// Partition of the stage's target file that `ptr` resolves in — the
  /// coalescing group key. Only called for keyed pointers on stages that
  /// report SupportsBatchedDereference().
  virtual uint32_t PartitionOfPointer(const io::Pointer& ptr) const {
    (void)ptr;
    return 0;
  }

  /// Consume a batch of input tuples at once. Emission order within the
  /// batch is unspecified (SMPE output is unordered anyway), but the emitted
  /// SET must equal what per-tuple Execute calls would produce. On error the
  /// whole batch is unconsumed: implementations must undo any cache
  /// admissions they made so a retry re-reads instead of re-admitting. The
  /// default degrades to a per-tuple loop.
  virtual Status ExecuteBatch(const ExecContext& ctx,
                              const std::vector<Tuple>& inputs,
                              std::vector<Tuple>* out) const {
    for (const Tuple& input : inputs) {
      LH_RETURN_NOT_OK(Execute(ctx, input, out));
    }
    return Status::OK();
  }

  /// Continuation invoked exactly once when an async invocation finishes.
  /// `ctx`, `input`/`inputs`, and `out` must stay valid until then. It runs
  /// on a thread the executor provides: inline on the calling thread, in a
  /// completion delivered through `ctx.completion_queue`, or in a
  /// `ctx.async->After` callback — never on a thread of the function's own
  /// (the async engine counts the continuation's work in the calling
  /// worker's counter shard).
  using AsyncDone = std::function<void(Status)>;

  /// Continuation-passing form of Execute. The built-in dereferencers and
  /// the background driver's stage (sched::BackgroundDriver) implement it
  /// as state machines that suspend across device completions and retry
  /// backoffs; their Execute runs the same machine in place without a
  /// completion queue. The default falls back to Execute and completes
  /// inline, which keeps custom stage functions correct: they merely hold
  /// the SMPE engine's CPU worker for the whole call, device waits
  /// included.
  virtual void ExecuteAsync(const ExecContext& ctx, const Tuple& input,
                            std::vector<Tuple>* out, AsyncDone done) const {
    done(Execute(ctx, input, out));
  }

  /// Continuation-passing form of ExecuteBatch; same contract and fallback
  /// semantics as ExecuteAsync.
  virtual void ExecuteBatchAsync(const ExecContext& ctx,
                                 const std::vector<Tuple>& inputs,
                                 std::vector<Tuple>* out,
                                 AsyncDone done) const {
    done(ExecuteBatch(ctx, inputs, out));
  }
};

/// A Referencer takes a record (bundle) and produces pointers to records it
/// is associated with. Pure CPU; never touches storage.
class Referencer : public StageFunction {
 public:
  explicit Referencer(std::string name) : name_(std::move(name)) {}
  bool IsDereferencer() const final { return false; }
  const std::string& name() const final { return name_; }

 private:
  std::string name_;
};

/// A Dereferencer takes a pointer (or pointer range) and produces the
/// records it points to, reading from the File or BtreeFile it manages.
class Dereferencer : public StageFunction {
 public:
  explicit Dereferencer(std::string name) : name_(std::move(name)) {}
  bool IsDereferencer() const final { return true; }
  const std::string& name() const final { return name_; }

 private:
  std::string name_;
};

using StageFunctionPtr = std::shared_ptr<const StageFunction>;

}  // namespace lakeharbor::rede
