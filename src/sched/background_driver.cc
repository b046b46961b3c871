#include "sched/background_driver.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <utility>

#include "common/clock.h"
#include "common/logging.h"
#include "io/pointer.h"
#include "rede/job.h"
#include "sim/completion_queue.h"

namespace lakeharbor::sched {

int64_t RateLimiter::TryAcquire(uint64_t bytes) {
  if (bytes_per_sec_ == 0 || bytes == 0) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  const int64_t now_us = NowMicros();
  if (next_free_us_ < now_us) next_free_us_ = now_us;
  const int64_t wait_us = next_free_us_ - now_us;
  if (wait_us > 0) return wait_us;  // denied: nothing charged
  next_free_us_ += static_cast<int64_t>(bytes * 1000000 / bytes_per_sec_);
  return 0;
}

/// Heap-held so the unit's stage can point at it while the slot moves
/// between the waiting and outstanding queues.
struct BackgroundSlot {
  BackgroundUnit unit;
  std::string name;  ///< the job's name, quoted by errors and warnings
  rede::Job job;
  RateLimiter* limiter = nullptr;
  CancelToken* cancel = nullptr;
  /// Set by a denied Take on any of the job's tasks; reset before every
  /// submission, so a broadcast job whose node tasks ran dry yields once.
  std::atomic<bool> yielded{false};
  std::atomic<int64_t> wait_us{0};
  JobHandlePtr handle;
  size_t attempts = 0;
  int64_t first_submit_us = 0;
};

bool Budget::Take(uint64_t bytes) {
  const int64_t wait_us = slot_->limiter->TryAcquire(bytes);
  if (wait_us <= 0) return true;
  slot_->wait_us.store(wait_us, std::memory_order_relaxed);
  slot_->yielded.store(true, std::memory_order_relaxed);
  return false;
}

void Budget::Step(DeviceStep step) {
  LH_CHECK_MSG(!step_->has_value(), "a body hands at most one step per call");
  step_->emplace(std::move(step));
}

Status Budget::CancelCause() const {
  if (ctx_.cancel != nullptr && ctx_.cancel->cancelled()) {
    return ctx_.cancel->cause();
  }
  if (slot_->cancel->cancelled()) return slot_->cancel->cause();
  return Status::OK();
}

namespace {

/// One task of a unit's job: calls the body, runs the step it hands back,
/// lands it and calls the body again, until a call hands no step. With a
/// completion queue each charge is submitted and its completion resumes
/// the task; without one (Execute) a charge is a submission plus one wait.
/// With a runtime each backoff is a timer; without one (Execute,
/// deterministic replay) it is a wait on the driver's token. Deletes itself
/// when it ends the task.
class UnitTask {
 public:
  UnitTask(const rede::ExecContext& ctx, const rede::Tuple& input,
           BackgroundSlot* slot, rede::StageFunction::AsyncDone done)
      : ctx_(ctx),
        input_(input),
        slot_(slot),
        budget_(ctx, slot, &step_),
        done_(std::move(done)) {}

  /// Runs phases until one suspends the task or ends it. Every
  /// continuation re-enters here. A phase that submits a charge or arms a
  /// timer returns false at once: from then on the continuation may run
  /// on another thread.
  void Drive() {
    bool more = true;
    while (more) {
      switch (phase_) {
        case Phase::kBody:
          more = CallBody();
          break;
        case Phase::kRead:
          more = StartRead();
          break;
        case Phase::kWrite:
          more = StartWrite();
          break;
        case Phase::kSettle:
          more = Settle();
          break;
      }
    }
  }

 private:
  enum class Phase : uint8_t { kBody, kRead, kWrite, kSettle };

  bool CallBody() {
    step_.reset();
    Status status = slot_->unit.body(ctx_, input_, budget_);
    if (!status.ok() || !step_.has_value()) {
      Finish(std::move(status));
      return false;
    }
    attempt_ = 0;
    phase_ = Phase::kRead;
    return true;
  }

  bool StartRead() {
    Status cancelled = budget_.CancelCause();
    if (!cancelled.ok()) {
      Finish(std::move(cancelled));
      return false;
    }
    landed_ = sim::Completion();
    phase_ = step_->write_to.empty() ? Phase::kSettle : Phase::kWrite;
    if (step_->pick_source) {
      StatusOr<sim::NodeId> source = step_->pick_source();
      if (!source.ok()) {
        landed_.status = source.status();
        phase_ = Phase::kSettle;
        return true;
      }
      step_->source = *source;
    }
    if (ctx_.completion_queue == nullptr) {
      landed_.status = ctx_.cluster->ChargeSequentialRead(
          step_->node, step_->source, step_->bytes, &landed_.outcome);
      return true;
    }
    ctx_.cluster->SubmitChargeSequentialRead(
        step_->node, step_->source, step_->bytes,
        sim::MakeCompletionCallbackTag([this](const sim::Completion& c) {
          landed_ = c;
          Drive();
        }),
        ctx_.completion_queue);
    return false;
  }

  bool StartWrite() {
    phase_ = Phase::kSettle;
    if (!landed_.status.ok()) return true;
    if (ctx_.completion_queue == nullptr) {
      landed_.status = ctx_.cluster->ChargeReplicatedWrite(
          step_->node, step_->write_to, step_->bytes);
      return true;
    }
    ctx_.cluster->SubmitChargeReplicatedWrite(
        step_->node, step_->write_to, step_->bytes,
        sim::MakeCallbackTag([this](Status status) {
          landed_.status = std::move(status);  // keeps the read's verdict
          Drive();
        }),
        ctx_.completion_queue);
    return false;
  }

  /// Retries a retryable failure after its backoff, or lands the step.
  /// An exhausted retryable error keeps its code and message, prefixed
  /// with the attempt count (as RunWithRetry reports it).
  bool Settle() {
    Status status = std::move(landed_.status);
    if (!status.ok() && status.IsRetryable()) {
      if (attempt_ < step_->retry.max_retries) {
        ++attempt_;
        if (step_->retries != nullptr) {
          step_->retries->fetch_add(1, std::memory_order_relaxed);
        }
        const uint64_t backoff_us =
            step_->retry.JitteredBackoffUs(attempt_, step_->jitter_seed);
        phase_ = Phase::kRead;  // which checks the tokens first
        if (backoff_us == 0) return true;
        if (ctx_.async != nullptr) {
          ctx_.async->After(backoff_us, [this] { Drive(); });
          return false;
        }
        slot_->cancel->WaitFor(backoff_us);
        return true;
      }
      if (attempt_ > 0) {
        status = status.WithContext("after " + std::to_string(attempt_ + 1) +
                                    " attempts");
      }
    }
    Status landed = step_->land(std::move(status), landed_.outcome);
    if (!landed.ok()) {
      Finish(std::move(landed));
      return false;
    }
    phase_ = Phase::kBody;
    return true;
  }

  void Finish(Status status) {
    rede::StageFunction::AsyncDone done = std::move(done_);
    delete this;
    done(std::move(status));
  }

  const rede::ExecContext& ctx_;
  const rede::Tuple& input_;
  BackgroundSlot* slot_;
  std::optional<DeviceStep> step_;  ///< set by Budget::Step
  Budget budget_;
  rede::StageFunction::AsyncDone done_;
  Phase phase_ = Phase::kBody;
  size_t attempt_ = 0;
  sim::Completion landed_;  ///< the attempt's status, the read's verdict
};

/// Runs a unit's body as a ReDe stage, so background work flows through the
/// scheduler and executor like any other job: same slots, tokens,
/// cancellation and metrics.
class UnitStage final : public rede::Dereferencer {
 public:
  UnitStage(std::string name, BackgroundSlot* slot)
      : rede::Dereferencer(std::move(name)), slot_(slot) {}

  bool WantsBroadcast() const override { return slot_->unit.broadcast; }
  uint32_t TargetReplication() const override {
    return slot_->unit.target_replication;
  }

  void ExecuteAsync(const rede::ExecContext& ctx, const rede::Tuple& input,
                    std::vector<rede::Tuple>* /*out*/,
                    AsyncDone done) const override {
    (new UnitTask(ctx, input, slot_, std::move(done)))->Drive();
  }

  /// The same task in place: with no queue and no runtime it ends before
  /// ExecuteAsync returns.
  Status Execute(const rede::ExecContext& ctx, const rede::Tuple& input,
                 std::vector<rede::Tuple>* out) const override {
    rede::ExecContext in_place = ctx;
    in_place.completion_queue = nullptr;
    in_place.async = nullptr;
    Status status;
    bool finished = false;
    ExecuteAsync(in_place, input, out, [&status, &finished](Status s) {
      status = std::move(s);
      finished = true;
    });
    LH_CHECK_MSG(finished, "a background task suspended without a queue");
    return status;
  }

 private:
  BackgroundSlot* slot_;
};

}  // namespace

BackgroundDriver::BackgroundDriver(JobScheduler* scheduler,
                                   JobClass job_class, std::string tenant,
                                   uint64_t bytes_per_sec,
                                   std::string job_verb,
                                   std::string stage_verb,
                                   BackgroundProgress* progress)
    : scheduler_(scheduler),
      job_class_(job_class),
      tenant_(std::move(tenant)),
      job_verb_(std::move(job_verb)),
      stage_verb_(std::move(stage_verb)),
      progress_(progress),
      limiter_(bytes_per_sec) {
  LH_CHECK(scheduler_ != nullptr);
  LH_CHECK(progress_ != nullptr);
}

void BackgroundDriver::Reset() {
  cancel_.Reset();
  latency_ = obs::HistogramSnapshot();
}

void BackgroundDriver::WaitFor(uint64_t wait_us, CancelToken* stop) {
  if (stop == nullptr) {
    cancel_.WaitFor(wait_us);
    return;
  }
  // Two tokens: wait on the driver's in poll-sized slices and look at
  // `stop` between them.
  for (uint64_t waited = 0; waited < wait_us; waited += kPollUs) {
    if (stop->cancelled() ||
        cancel_.WaitFor(std::min(kPollUs, wait_us - waited))) {
      return;
    }
  }
}

Status BackgroundDriver::Run(std::vector<BackgroundUnit> units,
                             size_t max_outstanding, size_t max_attempts,
                             CancelToken* stop) {
  std::deque<std::unique_ptr<BackgroundSlot>> waiting;
  for (BackgroundUnit& unit : units) {
    auto slot = std::make_unique<BackgroundSlot>();
    slot->name = job_verb_ + "/" + unit.label;
    slot->limiter = &limiter_;
    slot->cancel = &cancel_;
    const std::string key = job_verb_ + "-" + unit.label;
    rede::JobBuilder builder(slot->name);
    builder.Initial(rede::Tuple::Point(unit.broadcast
                                           ? io::Pointer::Broadcast(key)
                                           : io::Pointer::Keyed(key)));
    builder.Add(std::make_shared<UnitStage>(stage_verb_ + "/" + unit.label,
                                            slot.get()));
    slot->unit = std::move(unit);  // before Build, which asks the stage
    LH_ASSIGN_OR_RETURN(slot->job, builder.Build());
    waiting.push_back(std::move(slot));
  }

  std::deque<std::unique_ptr<BackgroundSlot>> outstanding;
  auto drain = [&](const Status& cause) {
    for (std::unique_ptr<BackgroundSlot>& slot : outstanding) {
      slot->handle->Cancel(cause);
      StatusOr<rede::JobResult> joined = slot->handle->Wait();
      (void)joined;  // outcome no longer matters, only the join
    }
    outstanding.clear();
  };
  auto halted = [&] {
    return cancel_.cancelled() || (stop != nullptr && stop->cancelled());
  };
  // A fired token ends the run: with the cause when cancelled, OK when
  // stopped.
  auto halt = [&]() -> Status {
    const bool cancelled = cancel_.cancelled();
    const Status cause = cancelled ? cancel_.cause() : stop->cause();
    drain(cause);
    return cancelled ? cause : Status::OK();
  };

  while (!waiting.empty() || !outstanding.empty()) {
    if (halted()) return halt();
    while (!waiting.empty() && outstanding.size() < max_outstanding) {
      BackgroundSlot& slot = *waiting.front();
      const Admission admission =
          slot.unit.admit ? slot.unit.admit() : Admission::Run();
      if (admission.kind == Admission::Kind::kSkip) {
        waiting.pop_front();
        continue;
      }
      if (admission.kind == Admission::Kind::kDefer) {
        if (++slot.attempts >= max_attempts) {
          drain(admission.reason);
          return admission.reason.WithContext(
              slot.name + " deferred " + std::to_string(slot.attempts) +
              " times");
        }
        waiting.push_back(std::move(waiting.front()));
        waiting.pop_front();
        WaitFor(kPollUs, stop);
        break;
      }
      slot.yielded.store(false, std::memory_order_relaxed);
      JobSpec spec;
      spec.tenant = tenant_;
      spec.job_class = job_class_;
      StatusOr<JobHandlePtr> submitted =
          scheduler_->Submit(slot.job, std::move(spec));
      if (!submitted.ok()) {
        if (submitted.status().IsResourceExhausted()) {
          // Admission control pushed back. Let an outstanding job finish
          // (or idle one poll when none is) and try again.
          if (outstanding.empty()) WaitFor(kPollUs, stop);
          break;
        }
        drain(submitted.status());
        return submitted.status().WithContext("submitting " + slot.name);
      }
      slot.handle = std::move(submitted).value();
      ++slot.attempts;
      if (slot.first_submit_us == 0) slot.first_submit_us = NowMicros();
      outstanding.push_back(std::move(waiting.front()));
      waiting.pop_front();
    }
    if (outstanding.empty() || halted()) continue;

    std::unique_ptr<BackgroundSlot> slot = std::move(outstanding.front());
    outstanding.pop_front();
    StatusOr<rede::JobResult> result = slot->handle->Wait();
    slot->handle.reset();
    if (result.ok() && slot->yielded.load(std::memory_order_relaxed)) {
      // Out of budget: the job returned its slot and io tokens. Wait the
      // deficit out here, holding nothing, then resubmit to resume.
      --slot->attempts;
      progress_->throttle_yields.fetch_add(1, std::memory_order_relaxed);
      const int64_t wait_us = slot->wait_us.load(std::memory_order_relaxed);
      waiting.push_back(std::move(slot));
      if (wait_us > 0) WaitFor(static_cast<uint64_t>(wait_us), stop);
      continue;
    }
    if (result.ok()) {
      const int64_t now_us = NowMicros();
      if (now_us > slot->first_submit_us) {
        latency_.Record(static_cast<uint64_t>(now_us - slot->first_submit_us));
      }
      if (slot->unit.done) slot->unit.done();
      continue;
    }
    // A cancel that lands while a job runs fails that job with the cancel
    // cause: that ends the run, it is not a failed attempt.
    if (halted()) return halt();
    if (slot->attempts >= max_attempts) {
      drain(result.status());
      return result.status().WithContext(
          slot->name + " failed after " + std::to_string(slot->attempts) +
          " submissions");
    }
    LH_LOG_WARN << slot->name << " failed (attempt " << slot->attempts
                << "): " << result.status().ToString() << "; resubmitting";
    progress_->job_resubmissions.fetch_add(1, std::memory_order_relaxed);
    waiting.push_back(std::move(slot));
  }
  return Status::OK();
}

}  // namespace lakeharbor::sched
