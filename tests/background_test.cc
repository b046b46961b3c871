// sched::BackgroundDriver, the one driver behind LogMerger, Scrubber and
// Rebalancer: the byte budget, exactly-once resumption across yields and
// failed attempts, a throttled unit that holds no scheduler resource
// while it waits out its deficit, and units in retry backoff that hold no
// engine worker.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "io/pointer.h"
#include "rede/async_executor.h"
#include "rede/job.h"
#include "rede/smpe_executor.h"
#include "sched/background_driver.h"
#include "sched/scheduler.h"
#include "sim/cluster.h"

namespace lakeharbor::sched {
namespace {

TEST(RateLimiter, TryAcquireChargesOnlyWhatFits) {
  RateLimiter unthrottled(0);
  EXPECT_EQ(unthrottled.TryAcquire(1 << 30), 0);

  // 1 MB/s: a 100 KB charge owes 100 ms.
  RateLimiter limiter(1000 * 1000);
  EXPECT_EQ(limiter.TryAcquire(100 * 1000), 0);
  const int64_t wait_us = limiter.TryAcquire(100 * 1000);
  EXPECT_GT(wait_us, 50 * 1000);
  EXPECT_LE(wait_us, 100 * 1000);
  // The denied charge charged nothing: asking again owes no more.
  const int64_t again = limiter.TryAcquire(100 * 1000);
  EXPECT_GT(again, 0);
  EXPECT_LE(again, wait_us);
  std::this_thread::sleep_for(std::chrono::microseconds(again));
  EXPECT_EQ(limiter.TryAcquire(100 * 1000), 0);
}

TEST(BackgroundDriver, ResumesExactlyOnceAcrossYieldsAndFailures) {
  for (const bool capped : {true, false}) {
    SCOPED_TRACE(capped ? "capped engine" : "uncapped engine");
    sim::Cluster cluster(sim::ClusterOptions::ForNodes(2));
    rede::SmpeOptions smpe;
    smpe.threads_per_node = 2;
    std::unique_ptr<rede::Executor> executor;
    if (capped) {
      executor = std::make_unique<rede::SmpeExecutor>(&cluster, smpe);
    } else {
      executor = std::make_unique<rede::AsyncExecutor>(&cluster, smpe);
    }
    JobScheduler scheduler(executor.get(), SchedulerOptions{});
    BackgroundProgress progress;
    // 1 MB/s: each pair of steps takes 20 KB and owes 20 ms, so the budget
    // lets two steps through per submission.
    constexpr uint64_t kPairBytes = 20 * 1000;
    BackgroundDriver driver(&scheduler, JobClass::kMaintenance, "test",
                            1000 * 1000, "unit", "step", &progress);

    // The unit's progress lives outside the job, so each submission
    // resumes where the last one stopped. Step 5 fails once.
    constexpr size_t kSteps = 8;
    std::array<std::atomic<int>, kSteps> applied{};
    std::atomic<size_t> next{0};
    std::atomic<bool> failed_once{false};
    int done_calls = 0;
    BackgroundUnit unit;
    unit.label = "resume";
    unit.body = [&](const rede::ExecContext&, const rede::Tuple&,
                    Budget& budget) -> Status {
      for (size_t step = next.load(); step < kSteps; step = next.load()) {
        LH_RETURN_NOT_OK(budget.CancelCause());
        if (step % 2 == 0 && !budget.Take(kPairBytes)) return Status::OK();
        if (step == 5 && !failed_once.exchange(true)) {
          return Status::Internal("step 5 fails once");
        }
        applied[step].fetch_add(1);
        next.store(step + 1);
      }
      return Status::OK();
    };
    unit.done = [&] { ++done_calls; };
    std::vector<BackgroundUnit> units;
    units.push_back(std::move(unit));

    Status run = driver.Run(std::move(units), /*max_outstanding=*/1,
                            /*max_attempts=*/3);
    ASSERT_TRUE(run.ok()) << run.ToString();
    for (size_t step = 0; step < kSteps; ++step) {
      EXPECT_EQ(applied[step].load(), 1) << "step " << step;
    }
    EXPECT_EQ(done_calls, 1);
    EXPECT_EQ(driver.latency().count, 1u);
    EXPECT_GT(progress.throttle_yields.load(), 0u);
    EXPECT_EQ(progress.job_resubmissions.load(), 1u);
    // Every submission yielded, failed and was resubmitted, or finished.
    EXPECT_EQ(progress.throttle_yields.load() +
                  progress.job_resubmissions.load() + 1,
              scheduler.stats().submitted);
  }
}

/// A point lookup that touches no data: it needs only a slot and a token.
class NoopLookup final : public rede::Dereferencer {
 public:
  NoopLookup() : rede::Dereferencer("noop-lookup") {}
  bool WantsBroadcast() const override { return false; }
  Status Execute(const rede::ExecContext&, const rede::Tuple&,
                 std::vector<rede::Tuple>*) const override {
    return Status::OK();
  }
};

TEST(BackgroundDriver, HoldsNoSlotOrTokenWhileThrottled) {
  sim::Cluster cluster(sim::ClusterOptions::ForNodes(2));
  rede::SmpeOptions smpe;
  smpe.threads_per_node = 2;
  rede::SmpeExecutor executor(&cluster, smpe);
  SchedulerOptions options;
  options.execution_slots = 1;
  // A running scrub job holds every token: a lookup could not start.
  options.io_tokens = options.scrub_io_tokens;
  JobScheduler scheduler(&executor, options);
  BackgroundProgress progress;
  // 1 KB/s: the unit's second 1 KB take owes about a second.
  BackgroundDriver driver(&scheduler, JobClass::kScrub, "test", 1000, "unit",
                          "step", &progress);
  BackgroundUnit unit;
  unit.label = "throttled";
  unit.body = [](const rede::ExecContext&, const rede::Tuple&,
                 Budget& budget) -> Status {
    while (budget.Take(1000)) {
    }
    return Status::OK();
  };
  std::vector<BackgroundUnit> units;
  units.push_back(std::move(unit));
  Status run = Status::Internal("not run");
  std::thread runner([&] {
    run = driver.Run(std::move(units), /*max_outstanding=*/1,
                     /*max_attempts=*/3);
  });
  while (progress.throttle_yields.load() == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  // The driver now waits out the deficit, holding neither the one slot nor
  // the token: a lookup that needs both runs at once.
  auto lookup_job = rede::JobBuilder("lookup")
                        .Initial(rede::Tuple::Point(io::Pointer::Keyed("k")))
                        .Add(std::make_shared<NoopLookup>())
                        .Build();
  ASSERT_TRUE(lookup_job.ok());
  JobSpec spec;
  spec.tenant = "serving";
  spec.job_class = JobClass::kPointLookup;
  StopWatch lookup_watch;
  auto lookup = scheduler.Run(*lookup_job, std::move(spec));
  ASSERT_TRUE(lookup.ok()) << lookup.status().ToString();
  EXPECT_LT(lookup_watch.ElapsedMillis(), 500.0);
  bool idle = false;
  for (int i = 0; i < 200 && !idle; ++i) {
    idle = scheduler.running() == 0;
    if (!idle) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(idle);
  EXPECT_EQ(progress.throttle_yields.load(), 1u);  // still the first wait

  StopWatch cancel_watch;
  driver.Cancel(Status::Aborted("pass cancelled"));
  runner.join();
  EXPECT_LT(cancel_watch.ElapsedMillis(), 100.0);
  EXPECT_TRUE(run.IsAborted()) << run.ToString();
  EXPECT_NE(run.message().find("pass cancelled"), std::string::npos);
  EXPECT_EQ(scheduler.running(), 0u);
  EXPECT_EQ(scheduler.queued(), 0u);
}

TEST(BackgroundDriver, LookupRunsWhileUnitsBackOff) {
  // Two units whose one device step keeps failing transiently (it streams
  // from a node in an outage window) sit in retry backoff on the capped
  // engine with 2 workers. A backoff is a timer, not a sleeping worker, so
  // a point lookup submitted meanwhile runs at once instead of waiting a
  // backoff out.
  constexpr uint64_t kBackoffUs = 300 * 1000;
  sim::Cluster cluster(sim::ClusterOptions::ForNodes(2));
  constexpr sim::NodeId kDown = 1;
  cluster.SetNodeOutage(kDown, true);
  rede::SmpeOptions smpe;
  smpe.async_workers = 2;
  smpe.threads_per_node = 4;  // room on each node for both units and more
  rede::SmpeExecutor executor(&cluster, smpe);
  JobScheduler scheduler(&executor, SchedulerOptions{});
  BackgroundProgress progress;
  BackgroundDriver driver(&scheduler, JobClass::kMigration, "test", 0,
                          "unit", "step", &progress);
  std::atomic<uint64_t> retries{0};
  std::vector<BackgroundUnit> units;
  for (const char* label : {"stuck-a", "stuck-b"}) {
    BackgroundUnit unit;
    unit.label = label;
    unit.body = [&retries](const rede::ExecContext& ctx, const rede::Tuple&,
                           Budget& budget) -> Status {
      DeviceStep step;
      step.node = ctx.node;
      step.source = kDown;
      step.bytes = 4096;
      step.retry.max_retries = 1000;
      step.retry.backoff_initial_us = kBackoffUs;
      step.retry.backoff_max_us = kBackoffUs;
      step.retries = &retries;
      step.land = [](Status status, const sim::ReadOutcome&) {
        return status;
      };
      budget.Step(std::move(step));
      return Status::OK();
    };
    units.push_back(std::move(unit));
  }
  Status run = Status::Internal("not run");
  std::thread runner([&] {
    run = driver.Run(std::move(units), /*max_outstanding=*/2,
                     /*max_attempts=*/1);
  });
  while (retries.load() < 2) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  // Both units now wait out their first backoff.
  auto lookup_job = rede::JobBuilder("lookup")
                        .Initial(rede::Tuple::Point(io::Pointer::Keyed("k")))
                        .Add(std::make_shared<NoopLookup>())
                        .Build();
  ASSERT_TRUE(lookup_job.ok());
  JobSpec spec;
  spec.tenant = "serving";
  spec.job_class = JobClass::kPointLookup;
  StopWatch lookup_watch;
  auto lookup = scheduler.Run(*lookup_job, std::move(spec));
  const double lookup_ms = lookup_watch.ElapsedMillis();
  ASSERT_TRUE(lookup.ok()) << lookup.status().ToString();
  EXPECT_LT(lookup_ms, 50.0);
  EXPECT_EQ(retries.load(), 2u);  // still the first backoff of each

  // A cancel that lands in the backoffs fails both jobs with its cause
  // within one backoff, and is not a failed attempt.
  StopWatch cancel_watch;
  driver.Cancel(Status::Aborted("liveness check done"));
  runner.join();
  EXPECT_LT(cancel_watch.ElapsedMillis(), 2.0 * kBackoffUs / 1000.0);
  EXPECT_TRUE(run.IsAborted()) << run.ToString();
  EXPECT_NE(run.message().find("liveness check done"), std::string::npos);
  EXPECT_EQ(progress.job_resubmissions.load(), 0u);
  bool idle = false;
  for (int i = 0; i < 200 && !idle; ++i) {
    idle = scheduler.running() == 0 && scheduler.queued() == 0;
    if (!idle) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(idle);
  cluster.SetNodeOutage(kDown, false);
}

}  // namespace
}  // namespace lakeharbor::sched
