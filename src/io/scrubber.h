#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/retry.h"
#include "common/status_or.h"
#include "io/file.h"
#include "obs/histogram.h"
#include "sched/background_driver.h"
#include "sched/scheduler.h"
#include "sim/cluster.h"

/// \file scrubber.h
/// Throttled background integrity scrubbing. Read-repair only heals the
/// replicas that foreground queries happen to touch; cold data rots
/// silently until something reads it. The Scrubber closes that gap: it runs
/// one verify/repair unit per (file, partition) through a
/// sched::BackgroundDriver as the low-priority kScrub maintenance class, so
/// foreground lookups and scans keep their fair share of the execution
/// slots and disk tokens while every replica of every partition gets
/// streamed and checksum-verified. The driver owns the shared byte budget,
/// yields, resubmission and cancellation (DESIGN.md §12, "Background
/// work").
///
/// What is the Scrubber's own: each job streams each live replica of its
/// partition at the replica's own node (a local verify pass — no cross-node
/// transfer) under the corruption injector, and rewrites any replica whose
/// stream fails verification from a clean sibling (one sequential read at
/// the source plus one replicated write at the target — the same charges as
/// a read repair). Each stream and each repair is one device step the body
/// hands the driver's stage, whose landing records the replica's verdict;
/// the body never blocks, so a stream in flight or in retry backoff holds
/// no engine worker. A partition where NO clean live replica exists is
/// reported unrepairable, never silently skipped; one with an unmerged
/// streaming-ingest tail is skipped and counted.
///
/// The pass also audits placement health: any partition whose live replica
/// count is below the file's REQUESTED replication factor — because the rf
/// was clamped on a small cluster (PlacementMap::clamped()) or because
/// replica nodes are down — is listed in the report, so degraded
/// durability is visible even when every surviving copy is clean.

namespace lakeharbor::io {

struct ScrubOptions {
  /// Outstanding scrub jobs in the scheduler at once. Together with the
  /// scheduler's scrub_io_tokens this bounds how many disk slots
  /// background verification can ever hold.
  size_t max_concurrent_scrubs = 2;

  /// Shared verify-rate budget across all concurrent scrub streams
  /// (0 = unthrottled).
  uint64_t throttle_bytes_per_sec = 0;

  /// Per-replica-stream retry of transient device faults (kIoError /
  /// kUnavailable), backed off on a timer by the driver's stage.
  /// Corruption verdicts are NOT retried: a rotten stream is a repair
  /// candidate, not a transient fault.
  RetryPolicy retry;

  /// Submissions of one partition's scrub job before the pass gives up.
  size_t max_partition_attempts = 3;

  /// Tenant the scrub jobs are accounted to.
  std::string tenant = "system-scrub";

  ScrubOptions() {
    retry.max_retries = 4;
    retry.backoff_initial_us = 50;
    retry.backoff_max_us = 2000;
    retry.jitter = 0.5;
  }
};

/// Live counters of the scrub pass in flight (readable from other threads).
struct ScrubProgress : sched::BackgroundProgress {
  std::atomic<uint64_t> partitions_total{0};
  std::atomic<uint64_t> partitions_done{0};
  std::atomic<uint64_t> replicas_verified{0};
  std::atomic<uint64_t> bytes_verified{0};
  std::atomic<uint64_t> corrupt_replicas_found{0};
  std::atomic<uint64_t> replicas_repaired{0};
  std::atomic<uint64_t> stream_retries{0};
  /// Partitions left unverified this pass because their file reported an
  /// unmerged op-log tail (ingest::StreamingFile): the device-resident
  /// bytes are about to change under a fold, so a verify stream would race
  /// the merger. Skipped-and-reported, never silently dropped — the next
  /// pass picks them up once the backlog drains.
  std::atomic<uint64_t> partitions_skipped_unmerged{0};

  void Reset() {
    BackgroundProgress::Reset();
    partitions_total.store(0);
    partitions_done.store(0);
    replicas_verified.store(0);
    bytes_verified.store(0);
    corrupt_replicas_found.store(0);
    replicas_repaired.store(0);
    stream_retries.store(0);
    partitions_skipped_unmerged.store(0);
  }
};

/// A partition serving fewer live replicas than its file requested —
/// durability is degraded there whether or not the surviving copies are
/// clean. `rf_clamped` distinguishes "the cluster was too small for the
/// requested rf" (PlacementMap::clamped()) from "replica nodes are down".
struct UnderReplicatedPartition {
  std::string file;
  uint32_t partition = 0;
  uint32_t requested_rf = 0;
  uint32_t live_replicas = 0;
  bool rf_clamped = false;
};

/// An unrepairable partition: corruption was found and no clean live
/// replica existed to repair from. Surfaced, never silently skipped.
struct UnrepairablePartition {
  std::string file;
  uint32_t partition = 0;
  uint32_t corrupt_replicas = 0;
  uint32_t live_replicas = 0;
};

/// Summary of one completed scrub pass.
struct ScrubReport {
  uint64_t partitions_scrubbed = 0;
  uint64_t replicas_verified = 0;
  uint64_t bytes_verified = 0;
  uint64_t corrupt_replicas_found = 0;
  uint64_t replicas_repaired = 0;
  uint64_t stream_retries = 0;
  uint64_t job_resubmissions = 0;
  uint64_t throttle_yields = 0;
  /// Partitions skipped because of an unmerged streaming-ingest tail.
  uint64_t partitions_skipped_unmerged = 0;
  uint64_t elapsed_ms = 0;
  /// Submit-to-done latency of each partition's scrub job.
  obs::HistogramSnapshot partition_scrub_us;
  std::vector<UnderReplicatedPartition> under_replicated;
  std::vector<UnrepairablePartition> unrepairable;
};

/// Drives scrub passes end to end. Not thread-safe for concurrent passes
/// (one at a time); Cancel() and progress() may be called from any thread
/// while one runs.
class Scrubber {
 public:
  Scrubber(sim::Cluster* cluster, sched::JobScheduler* scheduler,
           ScrubOptions options);
  LH_DISALLOW_COPY_AND_ASSIGN(Scrubber);

  /// Files whose partitions scrub passes verify. Files must outlive the
  /// scrubber.
  void RegisterFile(File* file);

  /// Run one full pass: every partition of every registered file, each
  /// replica streamed and verified, corrupt replicas rewritten in place.
  /// Returns the report; fails only on scheduler/driver errors (corrupt
  /// or under-replicated partitions are REPORTED, not errors — the pass
  /// exists to find them).
  StatusOr<ScrubReport> ScrubAll();

  /// Abort the pass in flight from any thread.
  void Cancel(Status cause) { driver_.Cancel(std::move(cause)); }

  const ScrubProgress& progress() const { return progress_; }
  const ScrubOptions& options() const { return options_; }

  /// Report of the most recently completed pass (empty before one).
  const ScrubReport& last_report() const { return last_report_; }

 private:
  sim::Cluster* cluster_;
  ScrubOptions options_;
  ScrubProgress progress_;
  ScrubReport last_report_;
  std::vector<File*> files_;
  sched::BackgroundDriver driver_;
};

}  // namespace lakeharbor::io
