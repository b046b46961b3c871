#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/retry.h"
#include "common/status_or.h"
#include "io/file.h"
#include "io/placement.h"
#include "obs/histogram.h"
#include "sched/background_driver.h"
#include "sched/scheduler.h"
#include "sim/cluster.h"

/// \file rebalancer.h
/// Online partition rebalancing for elastic cluster membership. A node join
/// or drain-first decommission produces, per registered File, an old→new
/// PlacementMap pair (PlacementManager::BeginTransition) plus a
/// per-partition migration plan; the Rebalancer then runs one background
/// copy unit per moved partition through a sched::BackgroundDriver as the
/// low-priority kMigration class, so foreground point lookups and scans
/// keep their fair share of the execution slots and disk tokens while data
/// moves. The driver owns the shared byte budget, yields, resubmission and
/// cancellation (DESIGN.md §12, "Background work").
///
/// What is the Rebalancer's own: each copy is chunked and fault-tolerant —
/// each chunk is one device step the body hands the driver's stage, which
/// retries transient device faults under RetryPolicy on a timer, fails
/// over to the next live old replica when the source node goes down
/// mid-move (the step picks its source on every attempt), and records
/// per-(partition, target) byte offsets when the chunk lands, so a
/// resubmitted job RESUMES instead of re-charging writes already applied
/// (exactly-once with respect to the replicated write). The body never
/// blocks: a chunk in flight or in retry backoff holds no engine worker. A partition with an unmerged streaming-ingest
/// tail is deferred, not copied. A partition whose copies all landed flips
/// its epoch atomically — queries immediately serve it from the new
/// replicas with the old set as failover tail — and when every partition
/// has flipped the transition commits and the old copies are released.

namespace lakeharbor::io {

struct RebalanceOptions {
  /// Outstanding migration jobs in the scheduler at once. Together with
  /// the scheduler's migration_io_tokens this bounds how many disk slots
  /// background copies can ever hold.
  size_t max_concurrent_migrations = 4;

  /// Shared copy-rate budget across all concurrent moves (0 = unthrottled).
  uint64_t throttle_bytes_per_sec = 0;

  /// Bytes per copy chunk — the resume granularity: offsets advance (and
  /// are never re-charged) in units of this.
  uint64_t copy_chunk_bytes = 1 << 20;

  /// Per-chunk retry of transient device faults (kIoError / kUnavailable).
  RetryPolicy retry;

  /// Submissions of one partition's copy job before the rebalance gives up
  /// and aborts (progress is kept across resubmissions).
  size_t max_partition_attempts = 3;

  /// Tenant the migration jobs are accounted to.
  std::string tenant = "system-rebalance";

  RebalanceOptions() {
    retry.max_retries = 4;
    retry.backoff_initial_us = 50;
    retry.backoff_max_us = 2000;
    retry.jitter = 0.5;
  }
};

/// Live counters of the rebalance in flight (readable from other threads).
struct RebalanceProgress : sched::BackgroundProgress {
  std::atomic<uint64_t> partitions_total{0};
  std::atomic<uint64_t> partitions_done{0};
  std::atomic<uint64_t> bytes_copied{0};
  std::atomic<uint64_t> chunks_copied{0};
  std::atomic<uint64_t> chunk_retries{0};
  std::atomic<uint64_t> source_failovers{0};
  /// Moves deferred because the partition's file reported an unmerged
  /// streaming-ingest tail (ingest::StreamingFile): copying its bytes
  /// mid-fold would ship a half-merged structure. The move is re-queued to
  /// let the merger drain; each re-queue counts as an attempt, so a tail
  /// that never drains aborts the rebalance instead of spinning.
  std::atomic<uint64_t> partitions_requeued_unmerged{0};

  void Reset() {
    BackgroundProgress::Reset();
    partitions_total.store(0);
    partitions_done.store(0);
    bytes_copied.store(0);
    chunks_copied.store(0);
    chunk_retries.store(0);
    source_failovers.store(0);
    partitions_requeued_unmerged.store(0);
  }
};

/// Summary of one completed rebalance.
struct RebalanceReport {
  uint64_t partitions_moved = 0;
  uint64_t partitions_unchanged = 0;
  uint64_t bytes_copied = 0;
  uint64_t chunks_copied = 0;
  uint64_t chunk_retries = 0;
  uint64_t source_failovers = 0;
  uint64_t job_resubmissions = 0;
  uint64_t throttle_yields = 0;
  /// Moves deferred (re-queued) because of an unmerged ingest tail.
  uint64_t partitions_requeued_unmerged = 0;
  /// Cluster placement epoch after the last file committed.
  uint64_t committed_epoch = 0;
  uint64_t elapsed_ms = 0;
  /// Submit-to-flip latency of each moved partition's copy job.
  obs::HistogramSnapshot partition_copy_us;
};

/// Drives membership changes end to end. Not thread-safe for concurrent
/// membership operations (one rebalance at a time); Cancel() and
/// progress() may be called from any thread while one runs.
class Rebalancer {
 public:
  Rebalancer(sim::Cluster* cluster, sched::JobScheduler* scheduler,
             RebalanceOptions options);
  LH_DISALLOW_COPY_AND_ASSIGN(Rebalancer);

  /// Files whose placements this rebalancer manages. Register every
  /// replicated file BEFORE the first membership change; files must
  /// outlive the rebalancer.
  void RegisterFile(File* file);

  /// Bring one new node online and spread existing partitions onto it:
  /// AddNode, then rebalance every registered file onto the new active
  /// member set. Returns the new node's id. On rebalance failure the
  /// transitions are aborted (placements roll back; the node stays
  /// registered but empty) and the error is returned.
  StatusOr<sim::NodeId> AddNodeAndRebalance();

  /// Drain-first decommission: rebalance every registered file onto the
  /// active member set WITHOUT `id` (the node keeps serving reads as a
  /// copy source throughout), then RemoveNode(id). On failure the node is
  /// NOT removed.
  Status RemoveNodeAndRebalance(sim::NodeId id);

  /// Re-spread every registered file across the current active member set
  /// (e.g. after AddNode was called directly on the cluster). Files whose
  /// placement already matches are skipped.
  StatusOr<RebalanceReport> RebalanceToActiveMembers();

  /// Abort the rebalance in flight from any thread: copies stop within
  /// one chunk/backoff quantum and the driver rolls the transitions back.
  void Cancel(Status cause) { driver_.Cancel(std::move(cause)); }

  const RebalanceProgress& progress() const { return progress_; }
  const RebalanceOptions& options() const { return options_; }

  /// Report of the most recently completed rebalance (empty before one).
  const RebalanceReport& last_report() const { return last_report_; }

 private:
  StatusOr<RebalanceReport> RebalanceToMembers(
      const std::vector<sim::NodeId>& members);
  Status RebalanceFile(File* file, const std::vector<sim::NodeId>& members,
                       RebalanceReport* report);

  sim::Cluster* cluster_;
  RebalanceOptions options_;
  RebalanceProgress progress_;
  RebalanceReport last_report_;
  std::vector<File*> files_;
  sched::BackgroundDriver driver_;
};

}  // namespace lakeharbor::io
