#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/status_or.h"
#include "concurrent/semaphore.h"
#include "obs/histogram.h"
#include "rede/executor.h"

/// \file scheduler.h
/// Multi-tenant job scheduling in front of the ReDe executors — the
/// serving-system layer ROADMAP item 1 calls for. The scheduler owns the
/// right to call Executor::Execute(): jobs are submitted with a tenant id
/// and a priority class, admission control bounds the queue when the system
/// saturates, and a weighted-fair (start-time fair queueing) dispatcher
/// shares the execution slots across tenants and classes so an analytical
/// scan burst cannot starve another tenant's point lookups.
///
/// Per-job isolation falls out of the executor contract this PR fixed:
/// every Execute() call carries its own metrics, trace, and CancelToken,
/// and cache activity is charged at its call sites — so each completed
/// job's JobProfile reconciles exactly, overlap or not.

namespace lakeharbor::sched {

/// The serving classes of the traffic mix (Q5'/claims analytics vs
/// primary-key lookups) plus the background migration class rebalancing
/// rides on. Classes pick weights and disk-slot costs; tenants within a
/// class still get fair shares of the class's throughput.
enum class JobClass {
  kPointLookup = 0,
  kAnalyticalScan = 1,
  /// Background partition copies issued by io::Rebalancer. Deliberately the
  /// lightest weight: a rebalance must never starve foreground serving.
  kMigration = 2,
  /// Background integrity verification issued by io::Scrubber: per-partition
  /// verify/repair sweeps. Maintenance work like kMigration — it must never
  /// starve foreground serving — but cheaper per job (one partition stream).
  kScrub = 3,
  /// Log-structured maintenance issued by ingest::LogMerger: folding sealed
  /// op-log epochs into the B-tree structures. The lowest-priority tier —
  /// freshness lag is the documented cost of protecting foreground latency,
  /// so a merge must always yield to any backlogged foreground flow.
  kMaintenance = 4,
};
inline constexpr size_t kNumJobClasses = 5;

const char* JobClassToString(JobClass job_class);

struct SchedulerOptions {
  /// Concurrent executor runs (the scheduler's execution slots). Against a
  /// blocking executor each slot is one worker thread driving one
  /// Execute() call; against an async executor
  /// (Executor::SupportsAsyncSubmit) a slot is held by the running job's
  /// continuation, so even one worker thread keeps all slots full.
  size_t execution_slots = 4;

  /// Admission control: queued (not-yet-dispatched) jobs beyond this bound
  /// are rejected at Submit with kResourceExhausted — backpressure to the
  /// client instead of unbounded memory growth. 0 = unbounded.
  size_t max_queue_depth = 0;

  /// true: weighted start-time fair queueing across (tenant, class) flows.
  /// false: one global FIFO in submission order — the baseline the
  /// traffic-mix bench contrasts against.
  bool fair = true;

  /// Class weights for fair dispatch (higher = larger share). Lookups
  /// default to the larger weight: they are cheap and latency-sensitive,
  /// scans are throughput work.
  double point_lookup_weight = 4.0;
  double analytical_scan_weight = 1.0;
  /// Background partition migrations: smallest share by default so
  /// rebalancing yields to any backlogged foreground flow.
  double migration_weight = 0.5;
  /// Background scrub sweeps share the maintenance-tier weight.
  double scrub_weight = 0.5;
  /// Op-log epoch merges: the lightest share of all — index freshness lag
  /// is preferred over foreground interference.
  double maintenance_weight = 0.5;

  /// Per-node disk slots: a pooled budget of concurrently dispatched I/O
  /// weight, gating dispatch (not Submit). A job must hold its class's
  /// token cost before its Execute() starts and returns the tokens when it
  /// finishes; waiting is cancellable, so a job whose deadline expires in
  /// the token queue leaves promptly. 0 = ungated.
  size_t io_tokens = 0;
  size_t point_lookup_io_tokens = 1;
  size_t analytical_scan_io_tokens = 4;
  /// Disk-slot cost of one migration job (a sequential partition copy).
  size_t migration_io_tokens = 2;
  /// Disk-slot cost of one scrub job (a single-partition verify stream —
  /// lighter than a migration's copy, so it contends less for slots).
  size_t scrub_io_tokens = 1;
  /// Disk-slot cost of one epoch-merge job (sequential log reads plus
  /// buffered index-page writes — copy-shaped work, like a migration). The
  /// job is broadcast, so it reads and writes on every node at once.
  size_t maintenance_io_tokens = 2;

  /// Deadline applied to jobs whose spec leaves deadline_ms == 0. Measured
  /// from Submit (queue time counts — serving semantics). 0 = none.
  uint64_t default_deadline_ms = 0;
};

/// Per-submission parameters.
struct JobSpec {
  std::string tenant = "default";
  JobClass job_class = JobClass::kAnalyticalScan;
  /// Wall-clock deadline from Submit; 0 defers to default_deadline_ms.
  uint64_t deadline_ms = 0;
  /// Output tuple sink (nullable; must be thread-safe).
  rede::ResultSink sink;
};

/// One submitted job's future. Returned by Submit; Wait() blocks until the
/// job finished (or was rejected/cancelled/deadline-exceeded) and yields
/// the executor's JobResult with exact per-job metrics. Cancel() flips the
/// job's own CancelToken: queued jobs complete immediately with the cause,
/// running jobs drain through the executor's fail-fast path, interrupting
/// any retry backoff mid-sleep.
class JobHandle {
 public:
  JobHandle(std::string tenant, JobClass job_class)
      : tenant_(std::move(tenant)), job_class_(job_class) {}
  JobHandle(const JobHandle&) = delete;
  JobHandle& operator=(const JobHandle&) = delete;

  const std::string& tenant() const { return tenant_; }
  JobClass job_class() const { return job_class_; }

  /// Request cancellation (first cause wins, shared with deadline expiry
  /// and executor-internal errors).
  void Cancel(Status cause) { cancel_.Cancel(std::move(cause)); }
  CancelToken& cancel_token() { return cancel_; }

  bool done() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return done_;
  }

  /// Block until the job completes; returns the executor result or the
  /// failure/cancellation cause. Safe to call from multiple threads and
  /// more than once (the result is retained).
  StatusOr<rede::JobResult> Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return done_; });
    if (!error_.ok()) return error_;
    return result_;
  }

  /// Microseconds the job spent queued before its slot (set at dispatch;
  /// for a job completed without dispatch, set at completion).
  uint64_t queue_wait_us() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_wait_us_;
  }
  /// Submit-to-completion microseconds (valid once done()).
  uint64_t total_us() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return total_us_;
  }

 private:
  friend class JobScheduler;

  /// Publish the outcome: a non-OK `error` wins over `result`. First
  /// completion wins; later calls are dropped.
  void Finish(Status error, rede::JobResult result, uint64_t queue_wait_us,
              uint64_t total_us) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (done_) return;
      done_ = true;
      error_ = std::move(error);
      result_ = std::move(result);
      queue_wait_us_ = queue_wait_us;
      total_us_ = total_us;
    }
    cv_.notify_all();
  }

  const std::string tenant_;
  const JobClass job_class_;
  CancelToken cancel_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  Status error_;
  rede::JobResult result_;
  uint64_t queue_wait_us_ = 0;
  uint64_t total_us_ = 0;
};

using JobHandlePtr = std::shared_ptr<JobHandle>;

/// Counters plus per-class latency distributions, snapshotted by stats().
struct SchedulerStats {
  uint64_t submitted = 0;
  uint64_t rejected = 0;   ///< admission-control refusals
  uint64_t completed = 0;  ///< finished with an OK executor status
  uint64_t failed = 0;     ///< finished with an error (incl. cancel/deadline)
  uint64_t cancelled = 0;  ///< subset of failed: token was cancelled
  struct PerClass {
    obs::HistogramSnapshot queue_wait_us;
    obs::HistogramSnapshot exec_us;
    obs::HistogramSnapshot total_us;  ///< submit -> completion
  };
  PerClass per_class[kNumJobClasses];
  /// Point-in-time view of one (tenant, class) flow's backlog: how many
  /// jobs sit queued (not yet dispatched) and how long the oldest has been
  /// waiting. Flows that have emptied still appear (depth 0, age 0) until
  /// the scheduler is destroyed — a flow that went quiet is a signal too.
  struct FlowStats {
    std::string tenant;
    JobClass job_class = JobClass::kAnalyticalScan;
    size_t queue_depth = 0;
    uint64_t oldest_queued_age_us = 0;
  };
  std::vector<FlowStats> flows;
};

/// The multi-tenant scheduler. One instance fronts one Executor (whose
/// Execute() is concurrency-safe); `execution_slots` worker threads drain
/// the queue in weighted-fair or FIFO order. Thread-safe.
///
/// The submitted Job (and the spec's sink) must outlive the job's
/// completion — hold them until Wait() returns or done() is true.
class JobScheduler {
 public:
  JobScheduler(rede::Executor* executor, SchedulerOptions options);
  ~JobScheduler();
  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Enqueue a job. Fails with kResourceExhausted when the queue is at
  /// max_queue_depth (admission control) or kAborted after Shutdown().
  StatusOr<JobHandlePtr> Submit(const rede::Job& job, JobSpec spec);

  /// Submit and block for the result (convenience).
  StatusOr<rede::JobResult> Run(const rede::Job& job, JobSpec spec = {});

  /// Stop accepting work, fail every queued job with kAborted, cancel
  /// nothing that is already running, and return only once every running
  /// job (blocking or async-dispatched) has drained and all workers are
  /// joined. Idempotent; the destructor calls it.
  void Shutdown();

  SchedulerStats stats() const;
  size_t queued() const;
  size_t running() const;
  const SchedulerOptions& options() const { return options_; }

 private:
  struct QueuedJob {
    JobHandlePtr handle;
    const rede::Job* job = nullptr;
    rede::ResultSink sink;
    uint64_t seq = 0;           ///< global submission order (FIFO key)
    int64_t submit_us = 0;      ///< NowMicros at Submit
    double start_tag = 0.0;     ///< SFQ virtual start time
    double finish_tag = 0.0;    ///< SFQ virtual finish time
  };
  /// One (tenant, class) backlog: internally FIFO, tagged for SFQ.
  struct Flow {
    std::deque<QueuedJob> jobs;
    double last_finish_tag = 0.0;
  };

  void WorkerLoop();
  void TimerLoop();
  /// Pop the next job under `mutex_` (SFQ min-start-tag or FIFO min-seq).
  std::optional<QueuedJob> PickNextLocked();
  void FinishJob(QueuedJob& next, Status error, rede::JobResult result,
                 int64_t dispatch_us, bool executed);
  size_t IoTokensFor(JobClass job_class) const;
  double WeightFor(JobClass job_class) const;

  rede::Executor* executor_;
  SchedulerOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  bool shutting_down_ = false;
  uint64_t next_seq_ = 0;
  size_t queued_jobs_ = 0;
  size_t running_jobs_ = 0;
  /// SFQ virtual clock: max start tag ever dispatched.
  double virtual_time_ = 0.0;
  std::map<std::pair<std::string, int>, Flow> flows_;

  /// Deadline timer: min-heap of (expiry_us, handle), serviced by one
  /// timer thread that flips expired handles' tokens.
  struct DeadlineEntry {
    int64_t expiry_us;
    std::weak_ptr<JobHandle> handle;
    bool operator>(const DeadlineEntry& other) const {
      return expiry_us > other.expiry_us;
    }
  };
  std::priority_queue<DeadlineEntry, std::vector<DeadlineEntry>,
                      std::greater<DeadlineEntry>>
      deadlines_;
  std::condition_variable timer_cv_;

  /// Pooled disk-slot budget (nullptr when io_tokens == 0).
  std::unique_ptr<Semaphore> io_tokens_;

  /// Counters + always-on latency histograms (see obs/histogram.h).
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> cancelled_{0};
  struct PerClassHist {
    obs::LatencyHistogram queue_wait_us;
    obs::LatencyHistogram exec_us;
    obs::LatencyHistogram total_us;
  };
  PerClassHist per_class_[kNumJobClasses];

  std::vector<std::thread> workers_;
  std::thread timer_;
};

}  // namespace lakeharbor::sched
