#include "io/rebalancer.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/clock.h"
#include "common/logging.h"

namespace lakeharbor::io {

namespace {

constexpr sim::NodeId kNoSource = UINT32_MAX;

/// Shared state of one partition's copy work, OUTSIDE the job so a
/// resubmitted job resumes from the recorded per-target offsets instead of
/// re-charging writes a previous attempt already applied.
struct PartitionCopyTask {
  sim::Cluster* cluster = nullptr;
  PartitionMove move;
  uint64_t partition_bytes = 0;
  uint64_t chunk_bytes = 0;
  RetryPolicy retry;
  RebalanceProgress* progress = nullptr;
  /// Bytes durably copied per target (index-aligned with move.targets).
  std::unique_ptr<std::atomic<uint64_t>[]> offsets;
  /// Source of each target's last chunk attempt (kNoSource before one).
  std::vector<sim::NodeId> last_sources;

  /// Pull-model chunked copy: each call hands the stage the next chunk of
  /// the first unfinished target, which charges one sequential read at a
  /// live old-replica source (disk + transfer) and one replicated write to
  /// itself. Chunks retry transient faults and fail over to the next live
  /// source; the offset only advances when the chunk lands after BOTH
  /// charges succeeded, so a failed chunk is redone wholesale and a
  /// finished one is never duplicated.
  Status Run(sched::Budget& budget) {
    for (size_t t = 0; t < move.targets.size(); ++t) {
      const sim::NodeId target = move.targets[t];
      const uint64_t offset = offsets[t].load(std::memory_order_acquire);
      if (offset >= partition_bytes) continue;
      LH_RETURN_NOT_OK(budget.CancelCause());
      const uint64_t chunk = std::min(chunk_bytes, partition_bytes - offset);
      if (!budget.Take(chunk)) return Status::OK();
      sched::DeviceStep step;
      step.node = target;
      step.pick_source = [this, t] { return PickSource(t); };
      step.bytes = chunk;
      step.write_to = {target};
      step.retry = retry;
      step.jitter_seed = (static_cast<uint64_t>(move.partition) << 32) ^
                         static_cast<uint64_t>(target) ^ offset;
      step.retries = &progress->chunk_retries;
      step.land = [this, t, offset, chunk](Status status,
                                           const sim::ReadOutcome&) {
        if (!status.ok()) {
          return status.WithContext(
              "copy of partition " + std::to_string(move.partition) +
              " to node " + std::to_string(move.targets[t]) +
              " stalled at byte " + std::to_string(offset) + "/" +
              std::to_string(partition_bytes));
        }
        offsets[t].store(offset + chunk, std::memory_order_release);
        progress->bytes_copied.fetch_add(chunk, std::memory_order_relaxed);
        progress->chunks_copied.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      };
      budget.Step(std::move(step));
      return Status::OK();
    }
    return Status::OK();
  }

  /// The first live old replica, picked before each attempt of a chunk to
  /// target `t`; a change from the target's last source is a failover.
  StatusOr<sim::NodeId> PickSource(size_t t) {
    sim::NodeId source = kNoSource;
    for (sim::NodeId candidate : move.sources) {
      if (!cluster->NodeIsDown(candidate)) {
        source = candidate;
        break;
      }
    }
    if (source == kNoSource) {
      return Status::Unavailable("no live source replica for partition " +
                                 std::to_string(move.partition));
    }
    if (last_sources[t] != kNoSource && source != last_sources[t]) {
      progress->source_failovers.fetch_add(1, std::memory_order_relaxed);
    }
    last_sources[t] = source;
    return source;
  }
};

}  // namespace

Rebalancer::Rebalancer(sim::Cluster* cluster, sched::JobScheduler* scheduler,
                       RebalanceOptions options)
    : cluster_(cluster),
      options_(std::move(options)),
      driver_(scheduler, sched::JobClass::kMigration, options_.tenant,
              options_.throttle_bytes_per_sec, "migrate", "copy",
              &progress_) {
  LH_CHECK(cluster_ != nullptr);
  LH_CHECK_MSG(options_.copy_chunk_bytes > 0,
               "rebalancer needs a nonzero copy chunk");
  LH_CHECK_MSG(options_.max_concurrent_migrations > 0,
               "rebalancer needs at least one concurrent migration");
  LH_CHECK_MSG(options_.max_partition_attempts > 0,
               "rebalancer needs at least one attempt per partition");
}

void Rebalancer::RegisterFile(File* file) {
  LH_CHECK(file != nullptr);
  files_.push_back(file);
}

StatusOr<sim::NodeId> Rebalancer::AddNodeAndRebalance() {
  LH_ASSIGN_OR_RETURN(sim::NodeId id, cluster_->AddNode());
  StatusOr<RebalanceReport> report =
      RebalanceToMembers(cluster_->ActiveNodeIds());
  if (!report.ok()) {
    return report.status().WithContext(
        "node " + std::to_string(id) +
        " joined but the rebalance onto it failed (placements rolled back)");
  }
  last_report_ = std::move(report).value();
  return id;
}

Status Rebalancer::RemoveNodeAndRebalance(sim::NodeId id) {
  if (id >= cluster_->num_nodes() || cluster_->NodeIsRemoved(id)) {
    return Status::InvalidArgument("node " + std::to_string(id) +
                                   " is not an active cluster member");
  }
  std::vector<sim::NodeId> members;
  for (sim::NodeId node : cluster_->ActiveNodeIds()) {
    if (node != id) members.push_back(node);
  }
  if (members.empty()) {
    return Status::InvalidArgument(
        "refusing to drain the last active node " + std::to_string(id));
  }
  // Drain first: the node keeps serving (and acts as a copy source) while
  // its partitions move away; only a fully committed rebalance removes it.
  LH_ASSIGN_OR_RETURN(RebalanceReport report, RebalanceToMembers(members));
  last_report_ = std::move(report);
  return cluster_->RemoveNode(id);
}

StatusOr<RebalanceReport> Rebalancer::RebalanceToActiveMembers() {
  LH_ASSIGN_OR_RETURN(RebalanceReport report,
                      RebalanceToMembers(cluster_->ActiveNodeIds()));
  last_report_ = report;
  return report;
}

StatusOr<RebalanceReport> Rebalancer::RebalanceToMembers(
    const std::vector<sim::NodeId>& members) {
  driver_.Reset();
  progress_.Reset();
  StopWatch watch;
  RebalanceReport report;
  for (File* file : files_) {
    LH_RETURN_NOT_OK(RebalanceFile(file, members, &report));
  }
  report.bytes_copied = progress_.bytes_copied.load(std::memory_order_relaxed);
  report.chunks_copied =
      progress_.chunks_copied.load(std::memory_order_relaxed);
  report.chunk_retries =
      progress_.chunk_retries.load(std::memory_order_relaxed);
  report.source_failovers =
      progress_.source_failovers.load(std::memory_order_relaxed);
  report.job_resubmissions =
      progress_.job_resubmissions.load(std::memory_order_relaxed);
  report.throttle_yields =
      progress_.throttle_yields.load(std::memory_order_relaxed);
  report.partitions_requeued_unmerged =
      progress_.partitions_requeued_unmerged.load(std::memory_order_relaxed);
  report.elapsed_ms = static_cast<uint64_t>(watch.ElapsedMillis());
  report.partition_copy_us = driver_.latency();
  return report;
}

Status Rebalancer::RebalanceFile(File* file,
                                 const std::vector<sim::NodeId>& members,
                                 RebalanceReport* report) {
  PlacementManager& manager = file->placement_manager();
  const PlacementMap current = manager.Snapshot();
  // Rebalance toward the REQUESTED rf: a file whose rf was clamped on a
  // small cluster regains its full replication once enough members exist.
  PlacementMap next(members, current.requested_replication_factor());
  if (next.SameMembersAndRf(current)) return Status::OK();
  LH_ASSIGN_OR_RETURN(
      MigrationPlan plan,
      manager.BeginTransition(std::move(next), file->num_partitions()));
  report->partitions_unchanged += plan.partitions_unchanged;
  progress_.partitions_total.fetch_add(plan.moves.size(),
                                       std::memory_order_relaxed);
  std::vector<sched::BackgroundUnit> units;
  for (const PartitionMove& move : plan.moves) {
    auto task = std::make_shared<PartitionCopyTask>();
    task->cluster = cluster_;
    task->move = move;
    task->partition_bytes = file->PartitionBytes(move.partition);
    task->chunk_bytes = options_.copy_chunk_bytes;
    task->retry = options_.retry;
    task->progress = &progress_;
    task->offsets =
        std::make_unique<std::atomic<uint64_t>[]>(move.targets.size());
    for (size_t t = 0; t < move.targets.size(); ++t) {
      task->offsets[t].store(0, std::memory_order_relaxed);
    }
    task->last_sources.assign(move.targets.size(), kNoSource);
    const uint32_t partition = move.partition;
    sched::BackgroundUnit unit;
    unit.label = file->name() + "/p" + std::to_string(partition);
    unit.body = [task](const rede::ExecContext&, const rede::Tuple&,
                       sched::Budget& budget) { return task->Run(budget); };
    unit.admit = [this, file, partition] {
      if (!file->PartitionHasUnmergedTail(partition)) {
        return sched::Admission::Run();
      }
      // A streaming-ingest fold is pending for this partition: copying its
      // bytes mid-fold would ship a half-merged structure to the new
      // replicas. Defer to let the merger drain — each deferral counts as
      // an attempt, so a tail that never drains aborts the rebalance
      // instead of spinning forever.
      progress_.partitions_requeued_unmerged.fetch_add(
          1, std::memory_order_relaxed);
      return sched::Admission::Defer(Status::Aborted(
          "partition " + std::to_string(partition) + " of file '" +
          file->name() +
          "' still has an unmerged op-log tail; quiesce ingest (or run the "
          "LogMerger) before rebalancing"));
    };
    unit.done = [this, &manager, partition] {
      // All copies of this partition landed: flip its epoch — queries now
      // serve it from the new replicas with the old set as failover tail.
      manager.MarkPartitionMigrated(partition);
      progress_.partitions_done.fetch_add(1, std::memory_order_relaxed);
    };
    units.push_back(std::move(unit));
  }
  Status run =
      driver_.Run(std::move(units), options_.max_concurrent_migrations,
                  options_.max_partition_attempts);
  if (!run.ok()) {
    manager.AbortTransition();
    return run.WithContext("rebalance of file '" + file->name() +
                           "' aborted; placement rolled back");
  }
  // Commit BEFORE advancing the cluster epoch: tuples stamped with the
  // pre-advance epoch must compare < commit_epoch and resolve broadcasts
  // against the retired map (see PlacementManager::BroadcastOwner).
  const uint64_t serving_epoch = cluster_->placement_epoch() + 1;
  LH_RETURN_NOT_OK(manager.CommitTransition(serving_epoch));
  cluster_->AdvancePlacementEpoch();
  report->committed_epoch = serving_epoch;
  report->partitions_moved += plan.moves.size();
  LH_LOG_INFO << "rebalance: file '" << file->name() << "' committed epoch "
              << serving_epoch << " (" << plan.moves.size() << " moved, "
              << plan.partitions_unchanged << " unchanged)";
  return Status::OK();
}

}  // namespace lakeharbor::io
