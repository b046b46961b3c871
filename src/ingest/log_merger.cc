#include "ingest/log_merger.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/clock.h"
#include "common/logging.h"

namespace lakeharbor::ingest {

namespace {

/// Minimum bytes per merge charge, matching the io layer's minimum probe.
constexpr uint64_t kMinMergeBytes = 64;

/// Shared state of one epoch's merge, OUTSIDE the job so a resubmitted job
/// (throttle yield, transient failure) resumes at the unfolded partitions
/// instead of re-charging or re-applying work already done.
struct EpochMergeTask {
  StreamingFile* file = nullptr;
  std::shared_ptr<EpochBatch> batch;
  RetryPolicy retry;
  MergeProgress* progress = nullptr;

  /// Partitions of the epoch still unfolded. CountUnfolded sets it from the
  /// folded flags before each submission; the node task whose fold brings
  /// it to zero finishes the epoch.
  std::atomic<uint32_t> unfolded{0};
  /// Epoch fully merged (set by the finishing node task).
  std::atomic<bool> finished{false};

  /// Every node task of the previous submission has ended, so the folded
  /// flags are stable here.
  void CountUnfolded() {
    uint32_t count = 0;
    for (const EpochBatch::PartitionDelta& pd : batch->parts) {
      if (!pd.folded) ++count;
    }
    unfolded.store(count, std::memory_order_relaxed);
  }

  /// One node's share of the epoch: the partitions it owns at the job's
  /// fan-out epoch (Algorithm 1's local resolution), or every partition
  /// when the tuple was not broadcast. Partitions owned by different nodes
  /// fold concurrently; each has exactly one owner per submission. Each
  /// call hands the stage the charges of the first unfolded partition with
  /// bytes, whose landing folds it; the next call resumes after it.
  Status Run(const rede::ExecContext& ctx, const rede::Tuple& input,
             sched::Budget& budget) {
    const sim::NodeId owner = input.resolve_owner == rede::Tuple::kResolveOnSelf
                                  ? ctx.node
                                  : input.resolve_owner;
    const uint32_t parts = file->num_partitions();
    for (uint32_t p = 0; p < parts; ++p) {
      if (input.resolve_local &&
          file->BroadcastOwner(p, input.resolve_epoch) != owner) {
        continue;
      }
      LH_RETURN_NOT_OK(budget.CancelCause());
      const EpochBatch::PartitionDelta& pd = batch->parts[p];
      if (pd.folded) continue;  // resume-on-resubmit
      const uint64_t bytes = pd.bytes;
      if (bytes == 0) {
        LH_RETURN_NOT_OK(Fold(ctx, p));
        continue;
      }
      // Replay read of the log segment at the primary + replicated write
      // of the folded index pages — the throttle counts both sides.
      if (!budget.Take(2 * bytes)) return Status::OK();
      sched::DeviceStep step;
      step.node = file->NodeOfPartition(p);
      step.source = step.node;
      step.bytes = std::max(bytes, kMinMergeBytes);
      step.write_to = file->placement().ReplicaNodes(p);
      step.retry = retry;
      step.jitter_seed = (batch->epoch << 32) ^ static_cast<uint64_t>(p);
      step.retries = &progress->charge_retries;
      step.land = [this, &ctx, p](Status charged, const sim::ReadOutcome&) {
        LH_RETURN_NOT_OK(charged);
        return Fold(ctx, p);
      };
      budget.Step(std::move(step));
      return Status::OK();
    }
    return Status::OK();
  }

  /// Charge-then-fold: the in-memory fold cannot fail, so the charge was
  /// the last fallible step of this partition. Together with the folded
  /// flag this makes record visibility exactly-once across crashes —
  /// charges may repeat on a retry, results never do.
  Status Fold(const rede::ExecContext& ctx, uint32_t p) {
    const index::FoldResult folded = file->FoldBucket(batch, p);
    progress->partitions_folded.fetch_add(1, std::memory_order_relaxed);
    progress->records_folded.fetch_add(folded.records,
                                       std::memory_order_relaxed);
    progress->bytes_folded.fetch_add(folded.bytes, std::memory_order_relaxed);
    if (ctx.metrics != nullptr) {
      ctx.metrics->records_folded.fetch_add(folded.records,
                                            std::memory_order_relaxed);
    }
    // The last fold of the epoch, on whichever node makes it, publishes
    // the merged LSN at once; acq_rel orders every other node's fold
    // before FinishEpochMerge checks the folded flags.
    if (unfolded.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      LH_RETURN_NOT_OK(file->FinishEpochMerge(batch, ctx.metrics));
      progress->epochs_merged.fetch_add(1, std::memory_order_relaxed);
      finished.store(true, std::memory_order_release);
    }
    return Status::OK();
  }
};

}  // namespace

LogMerger::LogMerger(sim::Cluster* cluster, sched::JobScheduler* scheduler,
                     MergeOptions options)
    : options_(std::move(options)),
      driver_(scheduler, sched::JobClass::kMaintenance, options_.tenant,
              options_.throttle_bytes_per_sec, "merge", "fold", &progress_) {
  LH_CHECK(cluster != nullptr);
  LH_CHECK_MSG(options_.max_epoch_attempts > 0,
               "log merger needs at least one attempt per epoch");
}

void LogMerger::RegisterFile(StreamingFile* file) {
  LH_CHECK(file != nullptr);
  LH_CHECK_MSG(!running_, "register files before starting the pump");
  files_.push_back(file);
}

StatusOr<bool> LogMerger::MergeOneEpoch(StreamingFile* file,
                                        CancelToken* stopper) {
  std::shared_ptr<EpochBatch> batch = file->NextUnmergedEpoch();
  if (batch == nullptr) return false;
  // The merge gate, checked once here and never in the job. It is exact:
  // a pin always takes the tail LSN, so a pin taken after this epoch
  // sealed cannot gate it, and only this merger pops the FIFO front — an
  // open gate stays open while the job waits in the scheduler.
  if (!file->CanFold(*batch)) {
    progress_.gate_deferrals.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  auto task = std::make_shared<EpochMergeTask>();
  task->file = file;
  task->batch = batch;
  task->retry = options_.retry;
  task->progress = &progress_;
  sched::BackgroundUnit unit;
  unit.label = file->name() + "/e" + std::to_string(batch->epoch);
  unit.broadcast = true;
  unit.target_replication = file->replication_factor();
  unit.body = [task](const rede::ExecContext& ctx, const rede::Tuple& input,
                     sched::Budget& budget) {
    return task->Run(ctx, input, budget);
  };
  unit.admit = [task] {
    task->CountUnfolded();
    return sched::Admission::Run();
  };
  unit.done = [task] {
    LH_CHECK_MSG(task->finished.load(std::memory_order_acquire),
                 "merge job ended without yielding or finishing its epoch");
  };
  std::vector<sched::BackgroundUnit> units;
  units.push_back(std::move(unit));
  LH_RETURN_NOT_OK(driver_.Run(std::move(units), /*max_outstanding=*/1,
                               options_.max_epoch_attempts, stopper));
  return task->finished.load(std::memory_order_acquire);
}

StatusOr<MergeReport> LogMerger::DrainBacklog() {
  LH_CHECK_MSG(!running_, "DrainBacklog must not race the pump");
  driver_.Reset();
  progress_.Reset();
  StopWatch watch;
  for (StreamingFile* file : files_) {
    while (true) {
      if (driver_.cancelled()) return driver_.cancel_cause();
      LH_ASSIGN_OR_RETURN(bool merged,
                          MergeOneEpoch(file, /*stopper=*/nullptr));
      if (merged) continue;
      if (file->backlog_epochs() == 0) break;
      // Gated on a pinned snapshot: wait for the unpin and poll.
      driver_.WaitFor(sched::BackgroundDriver::kPollUs);
    }
  }
  MergeReport report;
  report.epochs_merged = progress_.epochs_merged.load();
  report.partitions_folded = progress_.partitions_folded.load();
  report.records_folded = progress_.records_folded.load();
  report.bytes_folded = progress_.bytes_folded.load();
  report.gate_deferrals = progress_.gate_deferrals.load();
  report.throttle_yields = progress_.throttle_yields.load();
  report.job_resubmissions = progress_.job_resubmissions.load();
  report.charge_retries = progress_.charge_retries.load();
  report.elapsed_ms = static_cast<uint64_t>(watch.ElapsedMillis());
  report.epoch_merge_us = driver_.latency();
  last_report_ = report;
  return report;
}

Status LogMerger::Start() {
  if (running_) {
    return Status::InvalidArgument("log merger pump already running");
  }
  pump_stop_.Reset();
  running_ = true;
  pump_ = std::thread([this] { PumpLoop(); });
  return Status::OK();
}

void LogMerger::Stop() {
  if (!running_) return;
  pump_stop_.Cancel(Status::Aborted("log merger pump stopped"));
  if (pump_.joinable()) pump_.join();
  running_ = false;
}

void LogMerger::PumpLoop() {
  while (!pump_stop_.cancelled() && !driver_.cancelled()) {
    bool merged_any = false;
    for (StreamingFile* file : files_) {
      if (pump_stop_.cancelled() || driver_.cancelled()) break;
      StatusOr<bool> merged = MergeOneEpoch(file, &pump_stop_);
      if (!merged.ok()) {
        // A merge that exhausted its attempts poisons the pump: surface the
        // cause through cancelled()/cancel_cause() rather than spinning.
        LH_LOG_WARN << "log merger pump: " << merged.status().ToString();
        driver_.Cancel(merged.status());
        return;
      }
      merged_any = merged_any || merged.value();
    }
    if (merged_any) continue;
    // Idle: an epoch due to seal by age would otherwise wait for the next
    // append, which a quiet stream never makes. A sealed one merges now.
    bool sealed_any = false;
    for (StreamingFile* file : files_) {
      sealed_any = file->SealAgedEpoch() || sealed_any;
    }
    if (!sealed_any) pump_stop_.WaitFor(sched::BackgroundDriver::kPollUs);
  }
}

}  // namespace lakeharbor::ingest
