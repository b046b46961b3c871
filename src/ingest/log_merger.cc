#include "ingest/log_merger.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/clock.h"
#include "common/logging.h"
#include "rede/job.h"
#include "rede/stage_function.h"

namespace lakeharbor::ingest {

namespace {

/// Minimum bytes per merge charge, matching the io layer's minimum probe.
constexpr uint64_t kMinMergeBytes = 64;

/// Shared state of one epoch's merge, OUTSIDE the job so a resubmitted job
/// (throttle yield, transient failure) resumes at the unfolded partitions
/// instead of re-charging or re-applying work already done.
struct EpochMergeTask {
  sim::Cluster* cluster = nullptr;
  StreamingFile* file = nullptr;
  std::shared_ptr<EpochBatch> batch;
  RetryPolicy retry;
  io::RateLimiter* limiter = nullptr;
  CancelToken* merge_cancel = nullptr;
  MergeProgress* progress = nullptr;

  /// Partitions of the epoch still unfolded. MergeOneEpoch sets it from the
  /// folded flags before each submission; the node task whose fold brings
  /// it to zero finishes the epoch.
  std::atomic<uint32_t> unfolded{0};
  /// Set when a node task returned because the rate budget ran dry; the
  /// driver waits the deficit out off-scheduler and resubmits.
  std::atomic<bool> yielded{false};
  std::atomic<int64_t> yield_wait_us{0};
  /// Epoch fully merged (set by the finishing node task).
  std::atomic<bool> finished{false};

  bool Cancelled(const rede::ExecContext& ctx, Status* out) const {
    if (ctx.cancel != nullptr && ctx.cancel->cancelled()) {
      *out = ctx.cancel->cause();
      return true;
    }
    if (merge_cancel->cancelled()) {
      *out = merge_cancel->cause();
      return true;
    }
    return false;
  }

  /// Out of budget: yield instead of sleeping — a sleeping merge would park
  /// its execution slot and maintenance io tokens for the whole wait,
  /// starving foreground work of exactly what the throttle protects. (Same
  /// discipline as the scrubber's and rebalancer's jobs.)
  bool Yield(uint64_t want) {
    if (limiter == nullptr) return false;
    const int64_t wait_us = limiter->TryAcquire(want);
    if (wait_us <= 0) return false;
    yielded.store(true, std::memory_order_relaxed);
    yield_wait_us.store(wait_us, std::memory_order_relaxed);
    return true;
  }

  /// One node's share of the epoch: the partitions it owns at the job's
  /// fan-out epoch (Algorithm 1's local resolution), or every partition
  /// when the tuple was not broadcast. Partitions owned by different nodes
  /// fold concurrently; each has exactly one owner per submission.
  Status Run(const rede::ExecContext& ctx, const rede::Tuple& input) {
    const sim::NodeId owner = input.resolve_owner == rede::Tuple::kResolveOnSelf
                                  ? ctx.node
                                  : input.resolve_owner;
    const uint32_t parts = file->num_partitions();
    for (uint32_t p = 0; p < parts; ++p) {
      if (input.resolve_local &&
          file->BroadcastOwner(p, input.resolve_epoch) != owner) {
        continue;
      }
      Status cause;
      if (Cancelled(ctx, &cause)) return cause;
      const EpochBatch::PartitionDelta& pd = batch->parts[p];
      if (pd.folded) continue;  // resume-on-resubmit
      const uint64_t bytes = pd.bytes;
      if (bytes > 0) {
        // Replay read of the log segment at the primary + replicated write
        // of the folded index pages — the throttle counts both sides.
        if (Yield(2 * bytes)) return Status::OK();
        const sim::NodeId primary = file->NodeOfPartition(p);
        const std::vector<sim::NodeId> replicas =
            file->placement().ReplicaNodes(p);
        Status charged = RunWithRetry(
            retry,
            [&]() -> Status {
              LH_RETURN_NOT_OK(cluster->ChargeSequentialRead(
                  primary, primary, std::max(bytes, kMinMergeBytes)));
              return cluster->ChargeReplicatedWrite(
                  primary, replicas, std::max(bytes, kMinMergeBytes));
            },
            [&](size_t, uint64_t) {
              progress->charge_retries.fetch_add(1,
                                                 std::memory_order_relaxed);
            },
            merge_cancel,
            (batch->epoch << 32) ^ static_cast<uint64_t>(p));
        LH_RETURN_NOT_OK(charged);
      }
      // Charge-then-fold: the in-memory fold cannot fail, so the charge was
      // the last fallible step of this partition. Together with the folded
      // flag this makes record visibility exactly-once across crashes —
      // charges may repeat on a retry, results never do.
      const index::FoldResult folded = file->FoldBucket(batch, p);
      progress->partitions_folded.fetch_add(1, std::memory_order_relaxed);
      progress->records_folded.fetch_add(folded.records,
                                         std::memory_order_relaxed);
      progress->bytes_folded.fetch_add(folded.bytes,
                                       std::memory_order_relaxed);
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
    }
    return Status::OK();
  }
};

/// The merge work as a ReDe stage: a broadcast Dereferencer, so every node
/// runs one task over its own partitions and a merge flows through the
/// scheduler and executor like any other job — same slots, tokens,
/// cancellation, and metrics.
class EpochMergeStage final : public rede::Dereferencer {
 public:
  EpochMergeStage(std::string name, std::shared_ptr<EpochMergeTask> task)
      : rede::Dereferencer(std::move(name)), task_(std::move(task)) {}

  uint32_t TargetReplication() const override {
    return task_->file->replication_factor();
  }

  Status Execute(const rede::ExecContext& ctx, const rede::Tuple& input,
                 std::vector<rede::Tuple>* /*out*/) const override {
    return task_->Run(ctx, input);
  }

 private:
  std::shared_ptr<EpochMergeTask> task_;
};

}  // namespace

LogMerger::LogMerger(sim::Cluster* cluster, sched::JobScheduler* scheduler,
                     MergeOptions options)
    : cluster_(cluster),
      scheduler_(scheduler),
      options_(std::move(options)),
      limiter_(options_.throttle_bytes_per_sec),
      epoch_merge_hist_(std::make_unique<obs::LatencyHistogram>()) {
  LH_CHECK(cluster_ != nullptr);
  LH_CHECK(scheduler_ != nullptr);
  LH_CHECK_MSG(options_.max_epoch_attempts > 0,
               "log merger needs at least one attempt per epoch");
}

void LogMerger::RegisterFile(StreamingFile* file) {
  LH_CHECK(file != nullptr);
  LH_CHECK_MSG(!running_, "register files before starting the pump");
  files_.push_back(file);
}

bool LogMerger::WaitOrStop(uint64_t wait_us, CancelToken* stopper) {
  constexpr uint64_t kSliceUs = 1000;
  uint64_t waited = 0;
  while (waited < wait_us) {
    if (cancel_.cancelled()) return true;
    if (stopper != nullptr && stopper->cancelled()) return true;
    const uint64_t slice = std::min(kSliceUs, wait_us - waited);
    if (cancel_.WaitFor(slice)) return true;
    waited += slice;
  }
  return cancel_.cancelled() ||
         (stopper != nullptr && stopper->cancelled());
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
  task->cluster = cluster_;
  task->file = file;
  task->batch = batch;
  task->retry = options_.retry;
  task->limiter = &limiter_;
  task->merge_cancel = &cancel_;
  task->progress = &progress_;
  const std::string label =
      file->name() + "/e" + std::to_string(batch->epoch);
  rede::JobBuilder builder("merge/" + label);
  builder.Initial(rede::Tuple::Point(io::Pointer::Broadcast("merge-" + label)));
  builder.Add(std::make_shared<EpochMergeStage>("fold/" + label, task));
  LH_ASSIGN_OR_RETURN(rede::Job job, builder.Build());

  size_t attempts = 0;
  const int64_t first_submit_us = NowMicros();
  while (true) {
    if (cancel_.cancelled()) return cancel_.cause();
    if (stopper != nullptr && stopper->cancelled()) return false;
    // Every node task of the previous attempt has ended (Wait), so the
    // folded flags are stable here.
    uint32_t unfolded = 0;
    for (const EpochBatch::PartitionDelta& pd : batch->parts) {
      if (!pd.folded) ++unfolded;
    }
    task->unfolded.store(unfolded, std::memory_order_relaxed);
    task->yielded.store(false, std::memory_order_relaxed);
    sched::JobSpec spec;
    spec.tenant = options_.tenant;
    spec.job_class = sched::JobClass::kMaintenance;
    StatusOr<sched::JobHandlePtr> submitted =
        scheduler_->Submit(job, std::move(spec));
    if (!submitted.ok()) {
      if (submitted.status().IsResourceExhausted()) {
        if (WaitOrStop(1000, stopper)) {
          return cancel_.cancelled() ? StatusOr<bool>(cancel_.cause())
                                     : StatusOr<bool>(false);
        }
        continue;
      }
      return submitted.status().WithContext("submitting merge of epoch " +
                                            std::to_string(batch->epoch));
    }
    ++attempts;
    sched::JobHandlePtr handle = std::move(submitted).value();
    StatusOr<rede::JobResult> result = handle->Wait();
    if (result.ok() && task->yielded.load(std::memory_order_relaxed)) {
      // One yield per attempt, however many node tasks ran dry.
      --attempts;
      progress_.throttle_yields.fetch_add(1, std::memory_order_relaxed);
      const int64_t wait_us =
          task->yield_wait_us.load(std::memory_order_relaxed);
      if (wait_us > 0 &&
          WaitOrStop(static_cast<uint64_t>(wait_us), stopper)) {
        return cancel_.cancelled() ? StatusOr<bool>(cancel_.cause())
                                   : StatusOr<bool>(false);
      }
      continue;
    }
    if (result.ok()) {
      LH_CHECK_MSG(task->finished.load(std::memory_order_acquire),
                   "merge job ended without yielding or finishing its epoch");
      const int64_t now_us = NowMicros();
      if (now_us > first_submit_us) {
        epoch_merge_hist_->Record(
            static_cast<uint64_t>(now_us - first_submit_us));
      }
      return true;
    }
    if (attempts >= options_.max_epoch_attempts) {
      return result.status().WithContext(
          "merge of epoch " + std::to_string(batch->epoch) + " of '" +
          file->name() + "' failed after " + std::to_string(attempts) +
          " submissions");
    }
    LH_LOG_WARN << "log merger: epoch " << batch->epoch << " of '"
                << file->name() << "' failed (attempt " << attempts
                << "): " << result.status().ToString() << "; resubmitting";
    progress_.job_resubmissions.fetch_add(1, std::memory_order_relaxed);
  }
}

StatusOr<MergeReport> LogMerger::DrainBacklog() {
  LH_CHECK_MSG(!running_, "DrainBacklog must not race the pump");
  cancel_.Reset();
  progress_.Reset();
  epoch_merge_hist_ = std::make_unique<obs::LatencyHistogram>();
  StopWatch watch;
  for (StreamingFile* file : files_) {
    while (true) {
      if (cancel_.cancelled()) return cancel_.cause();
      LH_ASSIGN_OR_RETURN(bool merged,
                          MergeOneEpoch(file, /*stopper=*/nullptr));
      if (merged) continue;
      if (file->backlog_epochs() == 0) break;
      // Gated on a pinned snapshot: wait for the unpin and poll.
      if (WaitOrStop(options_.gate_poll_us, nullptr)) {
        return cancel_.cause();
      }
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
  report.epoch_merge_us = epoch_merge_hist_->Snapshot();
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
  while (!pump_stop_.cancelled() && !cancel_.cancelled()) {
    bool merged_any = false;
    for (StreamingFile* file : files_) {
      if (pump_stop_.cancelled() || cancel_.cancelled()) break;
      StatusOr<bool> merged = MergeOneEpoch(file, &pump_stop_);
      if (!merged.ok()) {
        // A merge that exhausted its attempts poisons the pump: surface the
        // cause through cancelled()/cancel_cause() rather than spinning.
        LH_LOG_WARN << "log merger pump: " << merged.status().ToString();
        cancel_.Cancel(merged.status());
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
    if (!sealed_any) pump_stop_.WaitFor(options_.idle_poll_us);
  }
}

}  // namespace lakeharbor::ingest
