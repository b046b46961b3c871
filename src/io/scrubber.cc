#include "io/scrubber.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/clock.h"

namespace lakeharbor::io {

namespace {

constexpr uint32_t kNoReplica = UINT32_MAX;

/// Per-replica scrub verdicts. Recorded OUTSIDE the job (on the task) so a
/// resubmitted job resumes where the last run stopped instead of
/// re-streaming replicas already verified.
enum ReplicaVerdict : uint8_t {
  kUnverified = 0,
  kClean = 1,
  kCorrupt = 2,
  kDown = 3,
  kRepaired = 4,
};

/// Minimum bytes streamed per replica verify, matching the io layer's
/// minimum probe: verifying an empty partition still costs a page read.
constexpr uint64_t kMinScrubBytes = 64;

/// Shared state of one partition's scrub work, OUTSIDE the job so a
/// resubmitted job (after a throttle yield or a transient failure) resumes
/// from the recorded verdicts instead of re-charging streams already paid.
struct PartitionScrubTask {
  sim::Cluster* cluster = nullptr;
  File* file = nullptr;
  uint32_t partition = 0;
  uint64_t bytes = 0;
  RetryPolicy retry;
  ScrubProgress* progress = nullptr;

  /// One verdict per replica slot; the verify cursor is the first
  /// kUnverified entry, the repair cursor the first kCorrupt one.
  std::vector<uint8_t> verdicts;

  /// Result summary the done hook reads after the job completes (the job
  /// handle's Wait() orders these writes before the driver's reads).
  uint32_t corrupt_found = 0;
  uint32_t repaired = 0;
  uint32_t live_replicas = 0;
  bool unrepairable = false;

  /// Each call hands the stage the next replica's verify stream, or else
  /// the next corrupt replica's repair; the step's landing records the
  /// verdict, and the next call resumes from the verdicts. The call that
  /// has no step left summarizes for the done hook.
  Status Run(sched::Budget& budget) {
    const uint32_t rf = file->ReplicaCountFor(partition);
    if (verdicts.size() < rf) verdicts.resize(rf, kUnverified);

    // Phase 1 — verify: stream each live replica AT ITS OWN NODE (a local
    // checksum pass, no cross-node transfer) under the corruption
    // injector. A corrupt verdict is recorded, not retried: rot is a
    // repair candidate, not a transient device fault.
    for (uint32_t r = 0; r < rf; ++r) {
      if (verdicts[r] != kUnverified) continue;
      LH_RETURN_NOT_OK(budget.CancelCause());
      const sim::NodeId node = file->NodeOfReplica(partition, r);
      if (cluster->NodeIsDown(node)) {
        verdicts[r] = kDown;
        continue;
      }
      if (!budget.Take(bytes)) return Status::OK();
      sched::DeviceStep step = Stream(node, node, r, 0);
      step.land = [this, r](Status stream, const sim::ReadOutcome& outcome) {
        return Verified(r, std::move(stream), outcome);
      };
      budget.Step(std::move(step));
      return Status::OK();
    }

    // Phase 2 — repair: rewrite each corrupt replica from a clean live
    // sibling (one sequential read at the source streamed to the target
    // plus one replicated write at the target — the same charges as a
    // foreground read repair). No clean live sibling means the partition
    // is unrepairable: reported, never silently skipped.
    for (uint32_t r = 0; r < rf; ++r) {
      if (verdicts[r] != kCorrupt) continue;
      LH_RETURN_NOT_OK(budget.CancelCause());
      uint32_t source = kNoReplica;
      for (uint32_t s = 0; s < rf; ++s) {
        if ((verdicts[s] == kClean || verdicts[s] == kRepaired) &&
            !cluster->NodeIsDown(file->NodeOfReplica(partition, s))) {
          source = s;
          break;
        }
      }
      if (source == kNoReplica) break;  // summarized below
      if (!budget.Take(2 * bytes)) return Status::OK();
      const sim::NodeId target_node = file->NodeOfReplica(partition, r);
      sched::DeviceStep step =
          Stream(target_node, file->NodeOfReplica(partition, source), r,
                 0x5c5b5c5bULL);
      step.write_to = {target_node};
      step.land = [this, r](Status repair, const sim::ReadOutcome&) {
        LH_RETURN_NOT_OK(repair);
        verdicts[r] = kRepaired;
        progress->replicas_repaired.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      };
      budget.Step(std::move(step));
      return Status::OK();
    }

    // Summarize for the done hook.
    corrupt_found = 0;
    repaired = 0;
    live_replicas = 0;
    unrepairable = false;
    for (uint32_t r = 0; r < rf; ++r) {
      if (verdicts[r] != kDown) ++live_replicas;
      if (verdicts[r] == kCorrupt) {
        ++corrupt_found;
        unrepairable = true;  // still corrupt after the repair phase
      }
      if (verdicts[r] == kRepaired) {
        ++corrupt_found;
        ++repaired;
      }
    }
    return Status::OK();
  }

  /// A stream of the partition's bytes from `source` to `node` for
  /// replica `r`, retried under the scrub policy.
  sched::DeviceStep Stream(sim::NodeId node, sim::NodeId source, uint32_t r,
                           uint64_t seed_salt) const {
    sched::DeviceStep step;
    step.node = node;
    step.source = source;
    step.bytes = bytes;
    step.retry = retry;
    step.jitter_seed = (static_cast<uint64_t>(partition) << 32) ^
                       static_cast<uint64_t>(r) ^ seed_salt;
    step.retries = &progress->stream_retries;
    return step;
  }

  /// Lands replica `r`'s verify stream: its verdict, or kDown.
  Status Verified(uint32_t r, Status stream, const sim::ReadOutcome& outcome) {
    if (stream.IsUnavailable()) {
      // The node died between the liveness check and the stream: treat
      // it like a down replica rather than failing the whole pass.
      verdicts[r] = kDown;
      return Status::OK();
    }
    LH_RETURN_NOT_OK(stream);
    progress->replicas_verified.fetch_add(1, std::memory_order_relaxed);
    progress->bytes_verified.fetch_add(bytes, std::memory_order_relaxed);
    if (outcome.corrupted && file->verify_checksums()) {
      verdicts[r] = kCorrupt;
      progress->corrupt_replicas_found.fetch_add(1, std::memory_order_relaxed);
    } else {
      verdicts[r] = kClean;
    }
    return Status::OK();
  }
};

}  // namespace

Scrubber::Scrubber(sim::Cluster* cluster, sched::JobScheduler* scheduler,
                   ScrubOptions options)
    : cluster_(cluster),
      options_(std::move(options)),
      driver_(scheduler, sched::JobClass::kScrub, options_.tenant,
              options_.throttle_bytes_per_sec, "scrub", "verify",
              &progress_) {
  LH_CHECK(cluster_ != nullptr);
  LH_CHECK_MSG(options_.max_concurrent_scrubs > 0,
               "scrubber needs at least one concurrent scrub");
  LH_CHECK_MSG(options_.max_partition_attempts > 0,
               "scrubber needs at least one attempt per partition");
}

void Scrubber::RegisterFile(File* file) {
  LH_CHECK(file != nullptr);
  files_.push_back(file);
}

StatusOr<ScrubReport> Scrubber::ScrubAll() {
  driver_.Reset();
  progress_.Reset();
  StopWatch watch;
  ScrubReport report;

  std::vector<sched::BackgroundUnit> units;
  for (File* file : files_) {
    for (uint32_t p = 0; p < file->num_partitions(); ++p) {
      auto task = std::make_shared<PartitionScrubTask>();
      task->cluster = cluster_;
      task->file = file;
      task->partition = p;
      task->bytes = std::max<uint64_t>(file->PartitionBytes(p),
                                       kMinScrubBytes);
      task->retry = options_.retry;
      task->progress = &progress_;
      sched::BackgroundUnit unit;
      unit.label = file->name() + "/p" + std::to_string(p);
      unit.body = [task](const rede::ExecContext&, const rede::Tuple&,
                         sched::Budget& budget) { return task->Run(budget); };
      unit.admit = [this, file, p] {
        if (!file->PartitionHasUnmergedTail(p)) return sched::Admission::Run();
        // A streaming-ingest fold is pending for this partition: its
        // device-resident bytes are about to change, so a verify stream
        // would race the merger. Skip-and-report; the next pass catches it.
        progress_.partitions_skipped_unmerged.fetch_add(
            1, std::memory_order_relaxed);
        return sched::Admission::Skip();
      };
      unit.done = [this, task, &report] {
        progress_.partitions_done.fetch_add(1, std::memory_order_relaxed);
        if (task->unrepairable) {
          report.unrepairable.push_back(UnrepairablePartition{
              task->file->name(), task->partition, task->corrupt_found,
              task->live_replicas});
        }
        const PlacementMap placement = task->file->placement();
        const uint32_t requested = placement.requested_replication_factor();
        if (task->live_replicas < requested) {
          report.under_replicated.push_back(UnderReplicatedPartition{
              task->file->name(), task->partition, requested,
              task->live_replicas, placement.clamped()});
        }
      };
      units.push_back(std::move(unit));
    }
  }
  progress_.partitions_total.store(units.size(), std::memory_order_relaxed);
  LH_RETURN_NOT_OK(driver_.Run(std::move(units),
                               options_.max_concurrent_scrubs,
                               options_.max_partition_attempts));

  report.partitions_scrubbed =
      progress_.partitions_done.load(std::memory_order_relaxed);
  report.replicas_verified =
      progress_.replicas_verified.load(std::memory_order_relaxed);
  report.bytes_verified =
      progress_.bytes_verified.load(std::memory_order_relaxed);
  report.corrupt_replicas_found =
      progress_.corrupt_replicas_found.load(std::memory_order_relaxed);
  report.replicas_repaired =
      progress_.replicas_repaired.load(std::memory_order_relaxed);
  report.stream_retries =
      progress_.stream_retries.load(std::memory_order_relaxed);
  report.job_resubmissions =
      progress_.job_resubmissions.load(std::memory_order_relaxed);
  report.throttle_yields =
      progress_.throttle_yields.load(std::memory_order_relaxed);
  report.partitions_skipped_unmerged =
      progress_.partitions_skipped_unmerged.load(std::memory_order_relaxed);
  report.elapsed_ms = static_cast<uint64_t>(watch.ElapsedMillis());
  report.partition_scrub_us = driver_.latency();
  last_report_ = report;
  return report;
}

}  // namespace lakeharbor::io
