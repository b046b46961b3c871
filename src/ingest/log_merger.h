#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/macros.h"
#include "common/retry.h"
#include "common/status_or.h"
#include "ingest/streaming_file.h"
#include "obs/histogram.h"
#include "sched/background_driver.h"
#include "sched/scheduler.h"
#include "sim/cluster.h"

/// \file log_merger.h
/// Background epoch merging. Each sealed op-log epoch of each registered
/// StreamingFile is folded into the B-tree structures by one broadcast unit
/// run through a sched::BackgroundDriver as the lowest-priority
/// kMaintenance class: foreground flows always win the weighted-fair race,
/// and freshness lag (the sealed-but-unmerged backlog) is the documented
/// price. The driver owns the shared byte budget, yields, resubmission and
/// cancellation (DESIGN.md §12, "Background work").
///
/// The job's initial pointer carries no partition, so every node runs one
/// task that folds only the partitions it owns (Algorithm 1's local
/// resolution, as in the broadcast dereferencers): an epoch's device work
/// runs on all nodes at once. Per partition the task's body hands the
/// driver's stage one device step — a sequential read of the epoch's
/// log-segment bytes at the primary (the replay) plus a replicated write of
/// the folded index pages to the partition's replica set, retried under
/// MergeOptions::retry — whose landing folds the in-memory bucket, which
/// cannot fail. The body never blocks: while the charges are in flight or
/// a retry backs off, the task holds no engine worker.
/// Charge-then-fold plus the per-partition folded flag makes the whole
/// pipeline exactly-once across crashes and resubmissions: a job that died
/// mid-epoch resumes at the unfolded partitions, never double-applying a
/// record (charges may repeat on retry, results never do). The task whose
/// fold leaves no partition unfolded finishes the epoch, so the merged LSN
/// is published by the last fold, exactly once.
///
/// The min-active-snapshot merge gate (StreamingFile::CanFold) defers —
/// never skips — epochs still visible to a pinned snapshot; the merger
/// checks it before it makes a unit, so a gated epoch costs a poll, not a
/// job.

namespace lakeharbor::ingest {

struct MergeOptions {
  /// Fold-rate byte budget shared by every node task of every merge job
  /// (0 = unthrottled). Charged as 2x each partition's epoch bytes (replay
  /// read + index write).
  uint64_t throttle_bytes_per_sec = 0;

  /// Retry of transient device faults during each partition's replay and
  /// write (a failed write redoes both); the driver's stage backs off on a
  /// timer.
  RetryPolicy retry;

  /// Submissions of one epoch's merge job before the drain gives up.
  size_t max_epoch_attempts = 5;

  /// Tenant the merge jobs are accounted to.
  std::string tenant = "system-ingest";

  MergeOptions() {
    retry.max_retries = 4;
    retry.backoff_initial_us = 50;
    retry.backoff_max_us = 2000;
    retry.jitter = 0.5;
  }
};

/// Live counters of merge work (readable from any thread).
struct MergeProgress : sched::BackgroundProgress {
  /// Epochs finished (merged LSN advanced), one per epoch.
  std::atomic<uint64_t> epochs_merged{0};
  /// Partition buckets folded, summed over every node's task.
  std::atomic<uint64_t> partitions_folded{0};
  std::atomic<uint64_t> records_folded{0};
  std::atomic<uint64_t> bytes_folded{0};
  /// Merger polls that found the oldest epoch gated by a pinned snapshot
  /// (no job is submitted for them).
  std::atomic<uint64_t> gate_deferrals{0};
  /// Transient device faults retried within a partition's step.
  std::atomic<uint64_t> charge_retries{0};

  void Reset() {
    BackgroundProgress::Reset();
    epochs_merged.store(0);
    partitions_folded.store(0);
    records_folded.store(0);
    bytes_folded.store(0);
    gate_deferrals.store(0);
    charge_retries.store(0);
  }
};

/// Summary of one completed DrainBacklog pass.
struct MergeReport {
  uint64_t epochs_merged = 0;
  uint64_t partitions_folded = 0;
  uint64_t records_folded = 0;
  uint64_t bytes_folded = 0;
  uint64_t gate_deferrals = 0;
  uint64_t throttle_yields = 0;
  uint64_t job_resubmissions = 0;
  uint64_t charge_retries = 0;
  uint64_t elapsed_ms = 0;
  /// First-submit-to-done latency of each epoch's merge.
  obs::HistogramSnapshot epoch_merge_us;
};

/// Drives epoch merges, either on demand (DrainBacklog) or continuously
/// (Start/Stop pump thread). One driver at a time: DrainBacklog must not
/// run while the pump does. Cancel() and progress() are thread-safe.
class LogMerger {
 public:
  /// `cluster` is the one `scheduler`'s executor runs on: the merge
  /// charges land there.
  LogMerger(sim::Cluster* cluster, sched::JobScheduler* scheduler,
            MergeOptions options);
  ~LogMerger() { Stop(); }
  LH_DISALLOW_COPY_AND_ASSIGN(LogMerger);

  /// Files whose backlogs merge passes fold. Files must outlive the merger.
  void RegisterFile(StreamingFile* file);

  /// Merge every epoch of every registered file until all backlogs are
  /// empty, waiting out pinned-snapshot gates. Returns the pass report.
  StatusOr<MergeReport> DrainBacklog();

  /// Start/stop the continuous pump: merges whatever becomes mergeable,
  /// idles (gated or empty) otherwise. A merge failure past its attempts
  /// cancels the merger (visible through cancelled()).
  Status Start();
  void Stop();
  bool running() const { return running_; }

  void Cancel(Status cause) { driver_.Cancel(std::move(cause)); }
  bool cancelled() const { return driver_.cancelled(); }
  Status cancel_cause() const { return driver_.cancel_cause(); }

  const MergeProgress& progress() const { return progress_; }
  const MergeOptions& options() const { return options_; }
  const MergeReport& last_report() const { return last_report_; }

 private:
  /// Merge the oldest epoch of `file` through the driver after checking
  /// the merge gate. Returns true when an epoch merged, false when there
  /// was nothing mergeable (empty backlog, pinned gate, or an interrupt
  /// from `stopper`).
  StatusOr<bool> MergeOneEpoch(StreamingFile* file, CancelToken* stopper);

  void PumpLoop();

  MergeOptions options_;
  CancelToken pump_stop_;
  MergeProgress progress_;
  MergeReport last_report_;
  std::vector<StreamingFile*> files_;
  sched::BackgroundDriver driver_;
  std::thread pump_;
  std::atomic<bool> running_{false};
};

}  // namespace lakeharbor::ingest
