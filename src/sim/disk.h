#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "common/macros.h"
#include "common/status.h"
#include "sim/completion_queue.h"
#include "sim/fault.h"
#include "sim/resource_stats.h"

namespace lakeharbor {
class TimerService;
}  // namespace lakeharbor

namespace lakeharbor::sim {

/// Configuration of a simulated storage device.
///
/// The defaults model one node of the paper's testbed: a RAID-6 array of 24
/// 10K-RPM SAS HDDs with a deep device queue (the paper sets
/// queue_depth=1008 at the OS level; the *device* can overlap roughly one
/// I/O per spindle, which is what `io_slots` bounds).
struct DiskOptions {
  /// Maximum concurrently-serviced I/Os (spindle-level parallelism).
  size_t io_slots = 24;
  /// Service time of one random read once admitted.
  uint64_t random_read_latency_us = 2000;
  /// Incremental service time of each follow-up key in a batched random
  /// read: after the initial seek, subsequent same-partition probes ride
  /// the head position / readahead window instead of paying a full seek.
  uint64_t batch_followup_latency_us = 250;
  /// Streaming bandwidth for sequential scans, bytes per second.
  uint64_t scan_bandwidth_bytes_per_sec = 50ull * 1024 * 1024;
  /// Granularity at which sequential scans reserve the device.
  size_t scan_chunk_bytes = 1 * 1024 * 1024;
  /// When false, no real time elapses; only counters move. Tests use this.
  bool timing_enabled = false;
  /// Scale all simulated delays (0.1 = 10x faster than modeled).
  double time_scale = 1.0;
  /// Deterministic, seeded fault injection (probabilistic kIoError /
  /// kUnavailable plus latency spikes). Off by default.
  FaultOptions faults;
};

/// A simulated disk: bounded-concurrency random reads and writes with fixed
/// service latency, plus bandwidth-modeled sequential scans.
///
/// One admission path. Every operation is a submission: its fate is drawn
/// from the fault stream when it is submitted, and it is charged (counters
/// and modeled service time) when its service ends. Random reads, batch
/// reads and writes share one slot count (`io_slots`) and one FIFO; scans
/// hold the device one chunk at a time and rotate among the active scans
/// after every chunk. With timing enabled an admitted operation occupies
/// its slot (or the scan head) for its scaled service time, and the timer
/// service ends it. The blocking calls (RandomRead, BatchRandomRead,
/// SequentialRead, Write) are a submission plus a wait for that
/// completion, so a blocked thread waits in the same queue as async
/// submissions and the device never serves more than its modeled capacity.
///
/// Untimed — or when the scaled service time rounds below 1 us — an
/// operation is charged inline on the calling thread and its completion
/// delivered before the submission returns: a blocking call's latch then
/// finds it there, so the call takes no lock and allocates nothing.
class Disk {
 public:
  /// `timers` ends timed operations; a Cluster passes its own. A disk built
  /// without one owns a timer service.
  explicit Disk(DiskOptions options, TimerService* timers = nullptr);
  ~Disk();
  LH_DISALLOW_COPY_AND_ASSIGN(Disk);

  /// One random record read of `bytes`. Waits for the modeled service time
  /// (timing mode). Fault injection may fail it. `outcome` (optional)
  /// receives the silent-corruption verdict of a successful read — see
  /// FaultOptions::corruption_rate.
  Status RandomRead(size_t bytes, ReadOutcome* outcome = nullptr);

  /// One *fused* random read resolving `ops` same-partition keys totalling
  /// `bytes`. The batch is a single device operation: one fault-stream
  /// assessment, one I/O slot admission, and latency
  /// `random_read_latency_us + (ops - 1) * batch_followup_latency_us`.
  /// Counts as ONE random_read (plus batched_reads/batched_ops), which is
  /// what makes dereference batching measurable. ops == 0 is a no-op.
  Status BatchRandomRead(size_t ops, size_t bytes,
                         ReadOutcome* outcome = nullptr);

  /// Stream `bytes` sequentially, holding the device one chunk at a time so
  /// that concurrent scans on the same disk share bandwidth fairly.
  Status SequentialRead(size_t bytes, ReadOutcome* outcome = nullptr);

  /// Model an index/file write (structure maintenance cost accounting). A
  /// write occupies a slot for one random-read latency.
  Status Write(size_t bytes);

  /// --- Asynchronous submission interface -----------------------------------
  ///
  /// Submit* never blocks: the operation's fate is drawn immediately (the
  /// SAME fault-stream draw, in submission order, as the blocking call),
  /// and the result is delivered as a `(tag, Status)` Completion on `cq`
  /// once the charge has landed — inline on the submitting thread when
  /// untimed or when the fate is a fault, on the timer thread otherwise.
  void SubmitRandomRead(size_t bytes, uint64_t tag, CompletionQueue* cq);

  /// Async analogue of BatchRandomRead. ops == 0 completes immediately with
  /// OK and, like the blocking call, charges nothing.
  void SubmitBatchRandomRead(size_t ops, size_t bytes, uint64_t tag,
                             CompletionQueue* cq);

  /// Async analogue of SequentialRead: per-chunk counters and service
  /// accounting land chunk by chunk, and one completion follows the last.
  void SubmitSequentialRead(size_t bytes, uint64_t tag, CompletionQueue* cq);

  /// Async analogue of Write.
  void SubmitWrite(size_t bytes, uint64_t tag, CompletionQueue* cq);

  /// After `n` more successful operations, every operation fails with
  /// IOError until ClearFault(). n == 0 makes the next operation fail.
  void InjectFaultAfter(uint64_t n);

  /// Transient-fault mode: deterministically fail every `n`-th operation
  /// (n >= 2) while the rest succeed — the retryable-error pattern real
  /// devices and object stores exhibit. Cleared by ClearFault().
  void InjectFaultEvery(uint64_t n);

  void ClearFault();

  /// Install new probabilistic fault knobs at runtime and rewind the
  /// deterministic fault stream (benches sweep the rate between phases;
  /// tests replay a fixed seed). Independent of InjectFault{After,Every}.
  void ConfigureFaults(const FaultOptions& faults) {
    injector_.Configure(faults);
  }

  /// Outage window: while down, every operation fails with kUnavailable.
  /// Toggled per node via Cluster::SetNodeOutage.
  void SetOutage(bool down) { injector_.SetOutage(down); }
  bool in_outage() const { return injector_.outage(); }

  /// Toggle timing simulation at runtime (counters always run). Benches
  /// load data untimed and enable timing only for the measured phase.
  void SetTimingEnabled(bool enabled) { options_.timing_enabled = enabled; }

  const ResourceStats& stats() const { return stats_; }
  ResourceStats& mutable_stats() { return stats_; }
  const DiskOptions& options() const { return options_; }

 private:
  enum class OpKind : uint8_t { kRead, kBatchRead, kWrite };
  /// One random read, batch read or write: what it charges and where its
  /// completion goes.
  struct Op {
    Op() = default;
    Op(OpKind k, size_t n, size_t b, uint64_t t = 0,
       CompletionQueue* q = nullptr)
        : kind(k), ops(n), bytes(b), tag(t), cq(q) {}

    OpKind kind = OpKind::kRead;
    size_t ops = 1;
    size_t bytes = 0;
    double service_us = 0;  // unscaled model time, recorded in stats
    /// Silent-corruption verdict drawn at submission, delivered with the
    /// completion (async reads only).
    ReadOutcome outcome;
    uint64_t tag = 0;
    CompletionQueue* cq = nullptr;
  };
  /// One sequential scan in the chunk rotation.
  struct Scan {
    size_t remaining = 0;
    double us_per_byte = 0;
    ReadOutcome outcome;
    uint64_t tag = 0;
    CompletionQueue* cq = nullptr;
  };

  /// Draws the next operation's fate. On success, `*latency_scale` (when
  /// non-null) is multiplied by any injected latency spike and `*outcome`
  /// (when non-null) receives the silent-corruption verdict.
  Status MaybeFault(double* latency_scale = nullptr,
                    ReadOutcome* outcome = nullptr);
  /// Draw `op`'s fate and set its service time.
  Status Assess(Op* op, ReadOutcome* outcome);
  /// Draw a scan's fate and set its bandwidth.
  Status Assess(Scan* scan, ReadOutcome* outcome);
  bool Timed(double service_us) const {
    return options_.timing_enabled &&
           service_us * options_.time_scale >= 1.0;
  }

  void Submit(Op op);
  void Charge(const Op& op);
  /// Timed: take a slot, or join the FIFO behind the occupied ones.
  void Admit(Op op);
  void StartService(Op op);         // timer for one admitted op
  void FinishService(const Op& op); // charge, hand the slot on, deliver

  void ChargeScanChunk(size_t chunk, double chunk_us);
  /// Untimed: charge every chunk of `scan` now.
  void ChargeScan(const Scan& scan);
  void AdmitScan(Scan scan);
  void ScheduleNextScanChunkLocked();  // requires mutex_
  void FinishScanChunk(size_t chunk, double chunk_us);

  size_t slot_capacity() const {
    return options_.io_slots == 0 ? 1 : options_.io_slots;
  }

  DiskOptions options_;
  ResourceStats stats_;
  FaultInjector injector_;

  TimerService* timers_ = nullptr;
  std::mutex mutex_;  // guards the device queue state below
  size_t in_service_ = 0;
  std::deque<Op> waiting_;
  std::deque<Scan> scans_;  // front = scan owning the next chunk
  bool scan_chunk_in_service_ = false;

  std::atomic<bool> fault_armed_{false};
  std::atomic<int64_t> ops_until_fault_{0};
  std::atomic<uint64_t> fault_every_{0};  // 0 = off
  std::atomic<uint64_t> op_counter_{0};

  /// Declared last so it is destroyed first: its thread is joined before
  /// the state its pending closures reference goes away.
  std::unique_ptr<TimerService> own_timers_;
};

}  // namespace lakeharbor::sim
