#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/macros.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/status_or.h"
#include "obs/histogram.h"
#include "rede/stage_function.h"
#include "rede/tuple.h"
#include "sched/scheduler.h"

/// \file background_driver.h
/// One driver for the structure maintenance that runs beside queries
/// (§III-D): epoch merges (ingest::LogMerger), scrub passes (io::Scrubber)
/// and rebalance copies (io::Rebalancer). A subsystem hands the driver
/// units — a task body plus an optional check before each submission and
/// an optional hook once the unit is done — and the driver owns the policy
/// all three share: the leaky-bucket byte budget, one single-stage job per
/// unit submitted at the subsystem's job class and tenant with at most N
/// outstanding, backoff on kResourceExhausted, throttle yields waited out
/// holding no execution slot and no io token, resubmission of failed jobs
/// up to an attempt cap, cancel-and-join of every outstanding job on cancel
/// or stop, and the per-unit latency histogram.
///
/// A body never blocks. Each call does its CPU work and either ends its
/// task or hands the stage one DeviceStep; the stage submits the step's
/// charges, waits out its retry backoffs on a timer, lands it and calls the
/// body again. On the SMPE engine a task therefore holds no CPU worker
/// while its charges are in flight or its backoff runs.

namespace lakeharbor::sched {

/// Leaky-bucket byte budget shared by every job of one driver. Thread-safe.
class RateLimiter {
 public:
  /// bytes_per_sec == 0 disables throttling (TryAcquire always admits).
  explicit RateLimiter(uint64_t bytes_per_sec)
      : bytes_per_sec_(bytes_per_sec) {}
  LH_DISALLOW_COPY_AND_ASSIGN(RateLimiter);

  /// Charges `bytes` and returns 0 when the budget admits them now;
  /// otherwise returns the microseconds until the bucket frees WITHOUT
  /// charging, so a job can yield its scheduler slot and io tokens for the
  /// wait instead of sleeping while it holds them.
  int64_t TryAcquire(uint64_t bytes);

 private:
  const uint64_t bytes_per_sec_;
  std::mutex mutex_;
  int64_t next_free_us_ = 0;
};

/// Counters every background subsystem keeps (readable from any thread).
struct BackgroundProgress {
  /// Submissions that ran out of byte budget and were resubmitted once the
  /// deficit elapsed, holding no scheduler resources in between. Counted
  /// once per yielded submission, however many of its node tasks ran dry.
  /// Not failures and not attempts.
  std::atomic<uint64_t> throttle_yields{0};
  /// Resubmissions after a failed job (yields are not counted here).
  std::atomic<uint64_t> job_resubmissions{0};

  void Reset() {
    throttle_yields.store(0);
    job_resubmissions.store(0);
  }
};

/// One unit's state within BackgroundDriver::Run (background_driver.cc).
struct BackgroundSlot;

/// One device step a body hands its stage (Budget::Step): a sequential
/// read of `bytes` from `source`, issued by `node`, then, when `write_to`
/// is not empty, a replicated write of `bytes` to `write_to`, issued by
/// `node`. A retryable failure of either charge redoes both under `retry`:
/// each retry is counted into `retries` (when set) and waits a backoff
/// jittered by `jitter_seed`. `land` then runs once, with the step's final
/// status and the read's corruption verdict; its error fails the task.
struct DeviceStep {
  sim::NodeId node = 0;
  sim::NodeId source = 0;
  /// Optional: picks `source` before each attempt. An error fails that
  /// attempt without a charge, and is retried like a charge's.
  std::function<StatusOr<sim::NodeId>()> pick_source;
  uint64_t bytes = 0;
  std::vector<sim::NodeId> write_to;
  RetryPolicy retry;
  uint64_t jitter_seed = 0;
  std::atomic<uint64_t>* retries = nullptr;
  std::function<Status(Status, const sim::ReadOutcome&)> land;
};

/// What a unit's body sees of its driver on one call.
class Budget {
 public:
  Budget(const rede::ExecContext& ctx, BackgroundSlot* slot,
         std::optional<DeviceStep>* step)
      : ctx_(ctx), slot_(slot), step_(step) {}

  /// Charges `bytes` and returns true when they fit the byte budget now.
  /// False records the wait: the body must return OK at once, without a
  /// step, and the driver resubmits the unit once the deficit elapsed, so
  /// the next run resumes from the progress the body keeps outside the job.
  bool Take(uint64_t bytes);

  /// Hands the stage the one device step of this call; the body then
  /// returns OK. The stage runs the step, its retries and its `land` hook,
  /// then calls the body again, which resumes from the progress it keeps
  /// outside the job. A call that hands no step ends the task.
  void Step(DeviceStep step);

  /// The cause when the job's token or the driver's token was cancelled,
  /// OK otherwise. Bodies check it between steps; the stage checks it
  /// before each attempt of a step.
  Status CancelCause() const;

 private:
  const rede::ExecContext& ctx_;
  BackgroundSlot* slot_;
  std::optional<DeviceStep>* step_;
};

/// What a unit's admit() check decides before each submission.
struct Admission {
  enum class Kind { kRun, kSkip, kDefer };
  Kind kind = Kind::kRun;
  /// kDefer: why the unit waits. A deferral counts as an attempt, and at
  /// the attempt cap the run fails with this status.
  Status reason;

  static Admission Run() { return {}; }
  static Admission Skip() { return {Kind::kSkip, Status::OK()}; }
  static Admission Defer(Status reason) {
    return {Kind::kDefer, std::move(reason)};
  }
};

/// One unit of background work: one job, resubmitted until its body returns
/// OK without a denied Take.
struct BackgroundUnit {
  /// Names the unit's job, stage and initial pointer (see BackgroundDriver)
  /// and every error and warning about it.
  std::string label;
  /// Called when a task starts and again after each step it handed lands:
  /// CPU work, then at most one Budget::Step. It must not block; the stage
  /// owns the step's charges, retries and backoffs.
  std::function<Status(const rede::ExecContext&, const rede::Tuple&,
                       Budget&)>
      body;
  /// True: one task per node, each over the partitions it owns (Algorithm
  /// 1's local resolution) of a structure with `target_replication`
  /// replicas. False: one keyed task.
  bool broadcast = false;
  uint32_t target_replication = 1;
  /// Optional check before each submission; absent means always run.
  std::function<Admission()> admit;
  /// Optional hook once the unit's job finished without yielding.
  std::function<void()> done;
};

/// Runs units of one subsystem through a JobScheduler. Run and Reset are
/// called from one thread at a time; Cancel from any thread.
class BackgroundDriver {
 public:
  /// The interval of every wait with no deficit to wait out: after a
  /// deferral, after admission control pushed back with no job outstanding,
  /// and the merger's gate and idle polls.
  static constexpr uint64_t kPollUs = 1000;

  /// Jobs go to `scheduler` as `job_class` under `tenant`. A unit labelled
  /// L runs as job "<job_verb>/L" seeded with pointer "<job_verb>-L" and one
  /// stage "<stage_verb>/L". `bytes_per_sec` is the byte budget shared by
  /// all its jobs (0 = unthrottled); yields and resubmissions count into
  /// `progress`.
  BackgroundDriver(JobScheduler* scheduler, JobClass job_class,
                   std::string tenant, uint64_t bytes_per_sec,
                   std::string job_verb, std::string stage_verb,
                   BackgroundProgress* progress);
  LH_DISALLOW_COPY_AND_ASSIGN(BackgroundDriver);

  /// Runs `units` to completion on the calling thread, keeping at most
  /// `max_outstanding` jobs in the scheduler and waiting on the oldest.
  /// A unit's job is resubmitted after a yield (not an attempt) and after a
  /// failure, until its attempts reach `max_attempts`. Returns OK once every
  /// unit is done or skipped, or once `stop` fired; the cause when Cancel
  /// was called; otherwise the first error that ended the run. It never
  /// returns with a job still outstanding.
  Status Run(std::vector<BackgroundUnit> units, size_t max_outstanding,
             size_t max_attempts, CancelToken* stop = nullptr);

  /// Waits up to `wait_us`, returning early when cancelled or `stop` fired.
  void WaitFor(uint64_t wait_us, CancelToken* stop = nullptr);

  void Cancel(Status cause) { cancel_.Cancel(std::move(cause)); }
  bool cancelled() const { return cancel_.cancelled(); }
  Status cancel_cause() const { return cancel_.cause(); }

  /// Re-arms for a new pass: clears the cancel token and the latency
  /// histogram (callers must guarantee no Run is in flight).
  void Reset();

  /// First-submit-to-done latency of each unit done since Reset.
  const obs::HistogramSnapshot& latency() const { return latency_; }

 private:
  JobScheduler* scheduler_;
  const JobClass job_class_;
  const std::string tenant_;
  const std::string job_verb_;
  const std::string stage_verb_;
  BackgroundProgress* progress_;
  RateLimiter limiter_;
  CancelToken cancel_;
  obs::HistogramSnapshot latency_;
};

}  // namespace lakeharbor::sched
