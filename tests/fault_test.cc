#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/retry.h"
#include "common/string_util.h"
#include "index/index_entry.h"
#include "io/key_codec.h"
#include "rede/builtin_derefs.h"
#include "rede/builtin_refs.h"
#include "rede/engine.h"
#include "rede/smpe_executor.h"
#include "rede/statistics.h"
#include "sim/cluster.h"
#include "sim/fault.h"

namespace lakeharbor::rede {
namespace {

// ------------------------------------------------------- retryable taxonomy

TEST(StatusRetryable, TransientCodesAreRetryablePermanentOnesAreNot) {
  EXPECT_TRUE(Status::IOError("x").IsRetryable());
  EXPECT_TRUE(Status::Unavailable("x").IsRetryable());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsRetryable());
  EXPECT_FALSE(Status::OK().IsRetryable());
  EXPECT_FALSE(Status::InvalidArgument("x").IsRetryable());
  EXPECT_FALSE(Status::NotFound("x").IsRetryable());
  EXPECT_FALSE(Status::Aborted("x").IsRetryable());
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyUpToCap) {
  RetryPolicy policy;
  policy.backoff_initial_us = 100;
  policy.backoff_multiplier = 2.0;
  policy.backoff_max_us = 500;
  EXPECT_EQ(policy.BackoffUs(1), 100u);
  EXPECT_EQ(policy.BackoffUs(2), 200u);
  EXPECT_EQ(policy.BackoffUs(3), 400u);
  EXPECT_EQ(policy.BackoffUs(4), 500u);  // capped
  EXPECT_EQ(policy.BackoffUs(10), 500u);
  EXPECT_FALSE(policy.enabled());
  policy.max_retries = 1;
  EXPECT_TRUE(policy.enabled());
}

TEST(RetryPolicyTest, SeededJitterDesynchronizesRetryStorms) {
  RetryPolicy policy;
  policy.backoff_initial_us = 100'000;
  policy.backoff_multiplier = 2.0;
  policy.backoff_max_us = 800'000;
  policy.jitter = 0.5;

  // Deterministic: the same (seed, retry) always yields the same backoff —
  // replayable schedules stay replayable.
  for (size_t retry = 1; retry <= 4; ++retry) {
    EXPECT_EQ(policy.JitteredBackoffUs(retry, 77),
              policy.JitteredBackoffUs(retry, 77));
  }

  // Bounded: jitter only shortens, never stretches past the classic ladder
  // and never collapses to zero.
  const uint64_t base = policy.BackoffUs(2);
  std::set<uint64_t> distinct;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    const uint64_t jittered = policy.JitteredBackoffUs(2, seed);
    EXPECT_LE(jittered, base);
    EXPECT_GE(jittered, base / 2);  // factor in (1 - jitter, 1]
    distinct.insert(jittered);
  }
  // De-synchronization: 32 workers that fail together (distinct per-task
  // seeds) spread over many distinct backoffs instead of retrying in
  // lockstep against the same recovering disk.
  EXPECT_GT(distinct.size(), 16u);

  // jitter == 0 (the default) preserves the exact deterministic ladder.
  RetryPolicy plain;
  plain.backoff_initial_us = 100;
  EXPECT_EQ(plain.JitteredBackoffUs(3, 99), plain.BackoffUs(3));
}

TEST(RunWithRetryTest, RetriesTransientFailuresUntilSuccess) {
  RetryPolicy policy;
  policy.max_retries = 5;
  policy.backoff_initial_us = 1;
  int calls = 0;
  int observed = 0;
  Status status = RunWithRetry(
      policy,
      [&]() -> Status {
        return ++calls < 3 ? Status::IOError("flaky") : Status::OK();
      },
      [&](size_t, uint64_t backoff_us) {
        ++observed;
        EXPECT_GT(backoff_us, 0u);
      });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(observed, 2);
}

TEST(RunWithRetryTest, ExhaustionKeepsOriginalCodeAndAddsAttemptContext) {
  RetryPolicy policy;
  policy.max_retries = 2;
  policy.backoff_initial_us = 1;
  int calls = 0;
  Status status = RunWithRetry(policy, [&]() -> Status {
    ++calls;
    return Status::Unavailable("replica down");
  });
  EXPECT_EQ(calls, 3);  // 1 attempt + 2 retries
  EXPECT_TRUE(status.IsUnavailable());
  EXPECT_NE(status.message().find("after 3 attempts"), std::string::npos);
  EXPECT_NE(status.message().find("replica down"), std::string::npos);
}

TEST(RunWithRetryTest, PermanentErrorsFailFast) {
  RetryPolicy policy;
  policy.max_retries = 5;
  int calls = 0;
  Status status = RunWithRetry(policy, [&]() -> Status {
    ++calls;
    return Status::Aborted("not transient");
  });
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(status.IsAborted());
}

// --------------------------------------------------------- fault injection

TEST(FaultInjector, ReplaysDeterministicallyFromFixedSeed) {
  sim::FaultOptions faults;
  faults.fault_rate = 0.2;
  faults.seed = 1234;
  sim::FaultInjector injector(faults);
  std::vector<size_t> first;
  for (size_t i = 0; i < 500; ++i) {
    if (injector.Assess("disk").faulted()) first.push_back(i);
  }
  // ~100 expected faults; very loose bounds, deterministic given the seed.
  EXPECT_GT(first.size(), 50u);
  EXPECT_LT(first.size(), 160u);

  injector.Configure(faults);  // rewind the stream
  std::vector<size_t> replay;
  for (size_t i = 0; i < 500; ++i) {
    if (injector.Assess("disk").faulted()) replay.push_back(i);
  }
  EXPECT_EQ(first, replay);

  faults.seed = 99;
  injector.Configure(faults);
  std::vector<size_t> other;
  for (size_t i = 0; i < 500; ++i) {
    if (injector.Assess("disk").faulted()) other.push_back(i);
  }
  EXPECT_NE(first, other);
}

TEST(FaultInjector, UnavailableFractionSelectsTheInjectedCode) {
  sim::FaultOptions faults;
  faults.fault_rate = 1.0;
  faults.unavailable_fraction = 1.0;
  faults.seed = 7;
  sim::FaultInjector injector(faults);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(injector.Assess("disk").status.IsUnavailable()) << i;
  }
  faults.unavailable_fraction = 0.0;
  injector.Configure(faults);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(injector.Assess("disk").status.IsIOError()) << i;
  }
}

TEST(FaultInjector, ReconfigurationSwapsKnobsAtomicallyUnderConcurrentAssess) {
  // "Hot" knobs: every operation faults, and every fault is kUnavailable.
  // "Off" knobs: nothing faults. A torn reconfiguration — the hot
  // fault_rate observed together with the off unavailable_fraction — would
  // surface as an injected kIoError, which NEITHER knob set can produce.
  sim::FaultOptions hot;
  hot.fault_rate = 1.0;
  hot.unavailable_fraction = 1.0;
  hot.seed = 9;
  sim::FaultOptions off;

  sim::FaultInjector injector(hot);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> faults_seen{0};
  std::vector<std::thread> assessors;
  for (int t = 0; t < 4; ++t) {
    assessors.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        sim::FaultInjector::Decision decision = injector.Assess("disk");
        if (decision.faulted()) {
          faults_seen.fetch_add(1, std::memory_order_relaxed);
          if (!decision.status.IsUnavailable()) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  // Keep toggling until the assessors have demonstrably raced a few
  // thousand hot-knob assessments (bounded so a pathological scheduler
  // cannot hang the test; the atomicity assertion holds regardless).
  uint64_t toggles = 0;
  while (faults_seen.load(std::memory_order_relaxed) < 2000 &&
         toggles < 20000000) {
    injector.Configure((toggles++ % 2 != 0) ? off : hot);
  }
  stop.store(true);
  for (auto& thread : assessors) thread.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(faults_seen.load(), 0u);  // the race was actually exercised
}

TEST(FaultInjector, RearmingAfterAllZeroKnobsReplaysFromOpZero) {
  sim::FaultOptions armed;
  armed.fault_rate = 0.3;
  armed.latency_spike_rate = 0.2;
  armed.seed = 4242;
  auto pattern = [](sim::FaultInjector& injector) {
    std::vector<int> fates;
    for (int i = 0; i < 300; ++i) {
      const sim::FaultInjector::Decision d = injector.Assess("disk");
      fates.push_back(d.faulted() ? 2 : d.spiked() ? 1 : 0);
    }
    return fates;
  };
  sim::FaultInjector injector(armed);
  const std::vector<int> first = pattern(injector);
  EXPECT_NE(std::count(first.begin(), first.end(), 2), 0);

  // Disarmed: the unarmed fast path injects nothing and draws no op index.
  injector.Configure(sim::FaultOptions{});
  for (int i = 0; i < 1000; ++i) {
    const sim::FaultInjector::Decision d = injector.Assess("disk");
    ASSERT_FALSE(d.faulted());
    ASSERT_FALSE(d.spiked());
    ASSERT_FALSE(d.corrupted);
  }

  injector.Configure(armed);
  EXPECT_EQ(pattern(injector), first);
}

TEST(DiskFaults, SeededProbabilisticFaultsReplayDeterministically) {
  sim::DiskOptions opts;
  opts.faults.fault_rate = 0.25;
  opts.faults.seed = 42;
  sim::Disk disk(opts);
  std::set<int> first;
  for (int i = 0; i < 200; ++i) {
    if (!disk.RandomRead(8).ok()) first.insert(i);
  }
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(disk.stats().injected_faults.load(), first.size());

  disk.ConfigureFaults(opts.faults);  // same seed: identical fault pattern
  std::set<int> replay;
  for (int i = 0; i < 200; ++i) {
    if (!disk.RandomRead(8).ok()) replay.insert(i);
  }
  EXPECT_EQ(first, replay);
}

TEST(DiskFaults, LatencySpikesAreCountedAndSlowTimedReads) {
  sim::DiskOptions opts;
  opts.faults.latency_spike_rate = 1.0;
  opts.faults.latency_spike_multiplier = 5.0;
  opts.faults.seed = 7;
  {
    sim::Disk counting(opts);
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(counting.RandomRead(8).ok());
    EXPECT_EQ(counting.stats().injected_latency_spikes.load(), 10u);
    EXPECT_EQ(counting.stats().injected_faults.load(), 0u);
  }
  opts.timing_enabled = true;
  opts.io_slots = 1;
  opts.random_read_latency_us = 300;
  sim::Disk timed(opts);
  StopWatch watch;
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(timed.RandomRead(8).ok());
  // Four spiked reads at 5 x 300 us each; un-spiked they would take 1.2 ms.
  EXPECT_GE(watch.ElapsedMicros(), 4000);
  EXPECT_EQ(timed.stats().injected_latency_spikes.load(), 4u);
}

TEST(ClusterFaults, NodeOutageFailsItsDiskAndItsMessages) {
  sim::Cluster cluster(sim::ClusterOptions::ForNodes(3));
  cluster.SetNodeOutage(1, true);
  EXPECT_TRUE(cluster.NodeIsDown(1));
  EXPECT_TRUE(cluster.node(1).disk().in_outage());

  EXPECT_TRUE(cluster.ChargeRandomRead(0, 0, 8).ok());
  EXPECT_TRUE(cluster.ChargeRandomRead(1, 1, 8).IsUnavailable());
  EXPECT_TRUE(cluster.ChargeRandomRead(0, 1, 8).IsUnavailable());
  EXPECT_TRUE(cluster.ChargeMessage(0, 1, 8).IsUnavailable());
  EXPECT_TRUE(cluster.ChargeMessage(1, 2, 8).IsUnavailable());
  EXPECT_TRUE(cluster.ChargeMessage(0, 2, 8).ok());

  cluster.SetNodeOutage(1, false);
  EXPECT_FALSE(cluster.NodeIsDown(1));
  EXPECT_TRUE(cluster.ChargeRandomRead(0, 1, 8).ok());
  EXPECT_TRUE(cluster.ChargeMessage(0, 1, 8).ok());
}

TEST(ClusterFaults, NetworkFaultsFailOnlyRemoteAccess) {
  sim::Cluster cluster(sim::ClusterOptions::ForNodes(2));
  sim::FaultOptions faults;
  faults.fault_rate = 1.0;
  faults.seed = 5;
  cluster.ConfigureNetworkFaults(faults);
  EXPECT_TRUE(cluster.ChargeRandomRead(0, 0, 8).ok());  // local: no network
  Status remote = cluster.ChargeRandomRead(0, 1, 8);
  ASSERT_FALSE(remote.ok());
  EXPECT_TRUE(remote.IsRetryable());

  faults.unavailable_fraction = 1.0;
  cluster.ConfigureNetworkFaults(faults);
  EXPECT_TRUE(cluster.ChargeMessage(0, 1, 8).IsUnavailable());

  cluster.ConfigureNetworkFaults(sim::FaultOptions{});
  EXPECT_TRUE(cluster.ChargeRandomRead(0, 1, 8).ok());
}

// ------------------------------------------------- executor fault handling

/// The rede_test employee/department dataset, with an engine whose retry
/// policy each test chooses.
struct FaultEngineFixture : ::testing::Test {
  static constexpr int kEmployees = 120;
  static constexpr int kDepts = 10;

  FaultEngineFixture() : cluster(sim::ClusterOptions::ForNodes(4)) {}

  void BuildEngine(EngineOptions options) {
    engine = std::make_unique<Engine>(&cluster, options);
    auto emp = std::make_shared<io::PartitionedFile>(
        "emp", std::make_shared<io::HashPartitioner>(8), &cluster);
    for (int i = 0; i < kEmployees; ++i) {
      std::string key = io::EncodeInt64Key(i);
      LH_CHECK(emp->Append(key, key,
                           io::Record(StrFormat("%d|emp%d|%d", i, i,
                                                i % kDepts)))
                   .ok());
    }
    emp->Seal();
    LH_CHECK(engine->catalog().Register(emp).ok());

    auto dept = std::make_shared<io::PartitionedFile>(
        "dept", std::make_shared<io::HashPartitioner>(4), &cluster);
    for (int d = 0; d < kDepts; ++d) {
      std::string key = io::EncodeInt64Key(d);
      LH_CHECK(dept->Append(key, key,
                            io::Record(StrFormat("%d|dept%d", d, d)))
                   .ok());
    }
    dept->Seal();
    LH_CHECK(engine->catalog().Register(dept).ok());

    index::IndexSpec spec;
    spec.index_name = "emp.dept.idx";
    spec.base_file = "emp";
    spec.placement = index::IndexPlacement::kGlobal;
    spec.extract = [](const io::Record& record,
                      std::vector<index::Posting>* out) -> Status {
      std::string_view row = record.slice().view();
      index::Posting posting;
      LH_ASSIGN_OR_RETURN(int64_t dept, ParseInt64(FieldAt(row, '|', 2)));
      LH_ASSIGN_OR_RETURN(int64_t id, ParseInt64(FieldAt(row, '|', 0)));
      posting.index_key = io::EncodeInt64Key(dept);
      posting.target_partition_key = io::EncodeInt64Key(id);
      posting.target_key = posting.target_partition_key;
      out->push_back(std::move(posting));
      return Status::OK();
    };
    LH_CHECK(engine->BuildStructure(spec, "dept").ok());
  }

  /// Full dept join (all employees), with plain, undecorated Dereferencers —
  /// fault tolerance comes from the executor's retry policy alone.
  StatusOr<Job> DeptJoinJob() {
    LH_ASSIGN_OR_RETURN(auto emp, engine->catalog().Get("emp"));
    LH_ASSIGN_OR_RETURN(auto dept, engine->catalog().Get("dept"));
    LH_ASSIGN_OR_RETURN(auto idx_file, engine->catalog().Get("emp.dept.idx"));
    auto idx = std::dynamic_pointer_cast<io::BtreeFile>(idx_file);
    LH_CHECK(idx != nullptr);
    return JobBuilder("dept-join")
        .Initial(Tuple::Range(io::Pointer::Broadcast(io::EncodeInt64Key(0)),
                              io::Pointer::Broadcast(
                                  io::EncodeInt64Key(kDepts - 1))))
        .Add(MakeRangeDereferencer("deref-idx", idx))
        .Add(MakeIndexEntryReferencer("ref-entry"))
        .Add(MakePointDereferencer("deref-emp", emp))
        .Add(MakeKeyReferencer("ref-dept", EncodedInt64FieldInterpreter(2)))
        .Add(MakePointDereferencer("deref-dept", dept))
        .Build();
  }

  static std::multiset<std::string> Canonical(
      const std::vector<Tuple>& tuples) {
    std::multiset<std::string> out;
    for (const auto& t : tuples) {
      std::string row;
      for (const auto& r : t.records) {
        row += r.bytes();
        row += '#';
      }
      out.insert(std::move(row));
    }
    return out;
  }

  static EngineOptions WithRetries(size_t max_retries) {
    EngineOptions options;
    options.smpe.retry.max_retries = max_retries;
    options.smpe.retry.backoff_initial_us = 10;
    options.smpe.retry.backoff_max_us = 100;
    return options;
  }

  sim::Cluster cluster;
  std::unique_ptr<Engine> engine;
};

TEST_F(FaultEngineFixture, ExecutorRetriesTransientFaultsUntilSuccess) {
  BuildEngine(WithRetries(5));
  auto job = DeptJoinJob();
  ASSERT_TRUE(job.ok());
  auto clean = engine->ExecuteCollect(*job, ExecutionMode::kSmpe);
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(clean->tuples.size(), static_cast<size_t>(kEmployees));

  for (uint32_t n = 0; n < cluster.num_nodes(); ++n) {
    cluster.node(n).disk().InjectFaultEvery(16);
  }
  for (auto mode : {ExecutionMode::kSmpe, ExecutionMode::kPartitioned}) {
    auto faulty = engine->ExecuteCollect(*job, mode);
    ASSERT_TRUE(faulty.ok()) << ExecutionModeToString(mode) << ": "
                             << faulty.status().ToString();
    EXPECT_EQ(Canonical(faulty->tuples), Canonical(clean->tuples));
    EXPECT_GT(faulty->metrics.retries, 0u) << ExecutionModeToString(mode);
    EXPECT_GT(faulty->metrics.retry_backoff_us, 0u)
        << ExecutionModeToString(mode);
    EXPECT_EQ(faulty->metrics.tasks_dropped_on_failure, 0u);
  }
  for (uint32_t n = 0; n < cluster.num_nodes(); ++n) {
    cluster.node(n).disk().ClearFault();
  }
}

TEST_F(FaultEngineFixture, SeededFaultRateIsSurvivedWithRetries) {
  BuildEngine(WithRetries(8));
  auto job = DeptJoinJob();
  ASSERT_TRUE(job.ok());
  auto clean = engine->ExecuteCollect(*job, ExecutionMode::kSmpe);
  ASSERT_TRUE(clean.ok());

  sim::FaultOptions faults;
  faults.fault_rate = 0.05;
  faults.unavailable_fraction = 0.5;  // mix of kUnavailable and kIoError
  faults.seed = 20260806;
  for (auto mode : {ExecutionMode::kSmpe, ExecutionMode::kPartitioned}) {
    cluster.ConfigureDiskFaults(faults);
    auto faulty = engine->ExecuteCollect(*job, mode);
    ASSERT_TRUE(faulty.ok()) << ExecutionModeToString(mode) << ": "
                             << faulty.status().ToString();
    EXPECT_EQ(Canonical(faulty->tuples), Canonical(clean->tuples));
    EXPECT_GT(faulty->metrics.retries, 0u) << ExecutionModeToString(mode);
  }
  cluster.ConfigureDiskFaults(sim::FaultOptions{});
}

TEST_F(FaultEngineFixture, RetryExhaustionSurfacesOriginalErrorWithContext) {
  BuildEngine(WithRetries(3));
  auto job = DeptJoinJob();
  ASSERT_TRUE(job.ok());
  for (auto mode : {ExecutionMode::kSmpe, ExecutionMode::kPartitioned}) {
    for (uint32_t n = 0; n < cluster.num_nodes(); ++n) {
      cluster.node(n).disk().InjectFaultAfter(0);  // permanent failure
    }
    auto result = engine->ExecuteCollect(*job, mode);
    ASSERT_FALSE(result.ok()) << ExecutionModeToString(mode);
    // The original transient code survives retry exhaustion, annotated with
    // the attempt count: the first attempt plus three retries.
    EXPECT_TRUE(result.status().IsIOError());
    EXPECT_NE(result.status().message().find("after 4 attempts"),
              std::string::npos)
        << result.status().ToString();
    for (uint32_t n = 0; n < cluster.num_nodes(); ++n) {
      cluster.node(n).disk().ClearFault();
    }
    // No leaked tasks: the engine runs the same job again cleanly.
    auto recovered = engine->ExecuteCollect(*job, mode);
    ASSERT_TRUE(recovered.ok()) << ExecutionModeToString(mode);
    EXPECT_EQ(recovered->tuples.size(), static_cast<size_t>(kEmployees));
  }
  // A permanent error is never retried, whatever the policy: a read of an
  // unsealed file answers kAborted after its first attempt.
  auto unsealed = std::make_shared<io::PartitionedFile>(
      "unsealed", std::make_shared<io::HashPartitioner>(4), &cluster);
  auto permanent =
      JobBuilder("unsealed-pk")
          .Initial(Tuple::Point(io::Pointer::Keyed(io::EncodeInt64Key(1))))
          .Add(MakePointDereferencer("deref-unsealed", unsealed))
          .Build();
  ASSERT_TRUE(permanent.ok());
  for (auto mode : {ExecutionMode::kSmpe, ExecutionMode::kPartitioned}) {
    auto result = engine->Execute(*permanent, mode);
    ASSERT_FALSE(result.ok()) << ExecutionModeToString(mode);
    EXPECT_TRUE(result.status().IsAborted()) << result.status().ToString();
    EXPECT_EQ(result.status().message().find("after 4 attempts"),
              std::string::npos)
        << result.status().ToString();
    if (mode == ExecutionMode::kSmpe) {
      EXPECT_NE(result.status().message().find("after 1 attempts"),
                std::string::npos)
          << result.status().ToString();
    }
  }
}

TEST_F(FaultEngineFixture, ExhaustedRetryErrorNamesStageFunctionNodeAndAttempts) {
  BuildEngine(WithRetries(2));
  auto job = DeptJoinJob();
  ASSERT_TRUE(job.ok());
  for (auto mode : {ExecutionMode::kSmpe, ExecutionMode::kPartitioned}) {
    for (uint32_t n = 0; n < cluster.num_nodes(); ++n) {
      cluster.node(n).disk().InjectFaultAfter(0);  // permanent failure
    }
    auto result = engine->ExecuteCollect(*job, mode);
    ASSERT_FALSE(result.ok()) << ExecutionModeToString(mode);
    const std::string message = result.status().message();
    // A post-mortem needs no guessing: the exhausted-retry error names the
    // stage index, the stage function, the node, and how hard we tried, on
    // top of the original device error.
    EXPECT_NE(message.find("stage "), std::string::npos) << message;
    EXPECT_NE(message.find("(deref-"), std::string::npos) << message;
    EXPECT_NE(message.find("on node "), std::string::npos) << message;
    EXPECT_NE(message.find("attempts"), std::string::npos) << message;
    EXPECT_NE(message.find("injected"), std::string::npos) << message;
    for (uint32_t n = 0; n < cluster.num_nodes(); ++n) {
      cluster.node(n).disk().ClearFault();
    }
  }
}

TEST_F(FaultEngineFixture, FailsFastWithoutRetriesUnderInjectedFaults) {
  BuildEngine(EngineOptions{});  // retries disabled (the default)
  auto job = DeptJoinJob();
  ASSERT_TRUE(job.ok());
  sim::FaultOptions faults;
  faults.fault_rate = 0.05;
  faults.seed = 77;
  for (auto mode : {ExecutionMode::kSmpe, ExecutionMode::kPartitioned}) {
    cluster.ConfigureDiskFaults(faults);
    auto result = engine->ExecuteCollect(*job, mode);
    ASSERT_FALSE(result.ok()) << ExecutionModeToString(mode);
    EXPECT_TRUE(result.status().IsRetryable())
        << result.status().ToString();  // the injected error, unmasked
  }
  cluster.ConfigureDiskFaults(sim::FaultOptions{});
  auto recovered = engine->ExecuteCollect(*job, ExecutionMode::kSmpe);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->tuples.size(), static_cast<size_t>(kEmployees));
}

TEST_F(FaultEngineFixture, NodeOutageFailsJobsCleanlyUntilLifted) {
  BuildEngine(EngineOptions{});
  auto job = DeptJoinJob();
  ASSERT_TRUE(job.ok());
  cluster.SetNodeOutage(2, true);
  for (auto mode : {ExecutionMode::kSmpe, ExecutionMode::kPartitioned}) {
    auto result = engine->ExecuteCollect(*job, mode);
    ASSERT_FALSE(result.ok()) << ExecutionModeToString(mode);
    EXPECT_TRUE(result.status().IsUnavailable())
        << result.status().ToString();
  }
  cluster.SetNodeOutage(2, false);
  auto recovered = engine->ExecuteCollect(*job, ExecutionMode::kSmpe);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->tuples.size(), static_cast<size_t>(kEmployees));
}

// ------------------------------------- batching + caching under faults

TEST_F(FaultEngineFixture, RetriedBatchesReReadInsteadOfReAdmitting) {
  BuildEngine(EngineOptions{});  // engine only builds the data + catalog
  auto job = DeptJoinJob();
  ASSERT_TRUE(job.ok());
  auto clean = engine->ExecuteCollect(*job, ExecutionMode::kSmpe);
  ASSERT_TRUE(clean.ok());

  SmpeOptions options;
  options.retry.max_retries = 8;
  options.retry.backoff_initial_us = 1;
  options.retry.backoff_max_us = 10;
  options.batch.enabled = true;
  options.batch.max_batch_size = 16;
  options.cache.enabled = true;
  SmpeExecutor executor(&cluster, options);
  ASSERT_NE(executor.record_cache(), nullptr);

  for (uint32_t n = 0; n < cluster.num_nodes(); ++n) {
    cluster.node(n).disk().InjectFaultEvery(8);
  }
  TupleCollector collector;
  auto result = executor.Execute(*job, collector.AsSink());
  for (uint32_t n = 0; n < cluster.num_nodes(); ++n) {
    cluster.node(n).disk().ClearFault();
  }
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Canonical(collector.TakeTuples()), Canonical(clean->tuples));
  EXPECT_GT(result->metrics.retries, 0u);
  EXPECT_GT(result->metrics.deref_batches, 0u);

  // A failed batch attempt aborted its reservations and invalidated its own
  // partial admissions before the retry re-read the data, so afterwards:
  // nothing is stuck in admission, the LRU books balance, and every resident
  // entry was admitted exactly once (CommitAdmission LH_CHECKs that a
  // reserved key cannot already be resident — a double-admit would abort).
  const RecordCache& cache = *executor.record_cache();
  EXPECT_EQ(cache.inflight(), 0u);
  EXPECT_TRUE(cache.CheckConsistency());
  RecordCacheStats stats = cache.stats();
  EXPECT_EQ(cache.entries(),
            stats.admissions - stats.invalidations - stats.evictions);
  // Nothing beyond the 120 employees + 10 departments is cacheable.
  EXPECT_LE(cache.entries(), static_cast<size_t>(kEmployees + kDepts));

  // No phantom hits: a rerun against the now-warm cache must produce the
  // exact clean result from cached records alone (plus any cold misses).
  TupleCollector warm;
  auto warm_result = executor.Execute(*job, warm.AsSink());
  ASSERT_TRUE(warm_result.ok());
  EXPECT_EQ(Canonical(warm.TakeTuples()), Canonical(clean->tuples));
  EXPECT_GT(warm_result->metrics.cache_hits, 0u);
}

TEST_F(FaultEngineFixture, MidBatchFaultWithoutRetriesLeavesCacheConsistent) {
  BuildEngine(EngineOptions{});
  auto job = DeptJoinJob();
  ASSERT_TRUE(job.ok());
  auto clean = engine->ExecuteCollect(*job, ExecutionMode::kSmpe);
  ASSERT_TRUE(clean.ok());

  SmpeOptions options;  // retries disabled: the first fault fails the job
  options.batch.enabled = true;
  options.batch.max_batch_size = 16;
  options.cache.enabled = true;
  SmpeExecutor executor(&cluster, options);

  for (uint32_t n = 0; n < cluster.num_nodes(); ++n) {
    cluster.node(n).disk().InjectFaultEvery(8);
  }
  TupleCollector sink;
  auto failed = executor.Execute(*job, sink.AsSink());
  for (uint32_t n = 0; n < cluster.num_nodes(); ++n) {
    cluster.node(n).disk().ClearFault();
  }
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsRetryable()) << failed.status().ToString();

  // The faulted batch read was charged before any of its records were
  // admitted, so the cache holds only wholly-read batches: no in-flight
  // reservations, balanced books.
  const RecordCache& cache = *executor.record_cache();
  EXPECT_EQ(cache.inflight(), 0u);
  EXPECT_TRUE(cache.CheckConsistency());

  // Entries that did survive are real: a clean rerun through the same
  // (partially warm) cache reproduces the exact result set.
  TupleCollector recovered;
  auto recovered_result = executor.Execute(*job, recovered.AsSink());
  ASSERT_TRUE(recovered_result.ok()) << recovered_result.status().ToString();
  EXPECT_EQ(Canonical(recovered.TakeTuples()), Canonical(clean->tuples));
  EXPECT_GT(recovered_result->metrics.cache_hits, 0u);
}

// ------------------------------------------------- statistics build retry

TEST(HistogramFaults, BuildRetriesTransientScanFailures) {
  sim::Cluster cluster(sim::ClusterOptions::ForNodes(2));
  auto index = std::make_shared<io::BtreeFile>(
      "idx", std::make_shared<io::HashPartitioner>(4), &cluster);
  for (int i = 0; i < 64; ++i) {
    LH_CHECK(index
                 ->AppendToPartition(static_cast<uint32_t>(i) % 4,
                                     io::EncodeInt64Key(i),
                                     io::Record(std::string("e")))
                 .ok());
  }
  index->Seal();
  auto clean = EquiDepthHistogram::Build(*index, 8);
  ASSERT_TRUE(clean.ok());

  sim::FaultOptions faults;
  faults.fault_rate = 1.0;
  faults.seed = 3;
  cluster.ConfigureDiskFaults(faults);
  // Default policy: fail fast on the injected error.
  EXPECT_TRUE(EquiDepthHistogram::Build(*index, 8).status().IsRetryable());

  faults.fault_rate = 0.4;
  cluster.ConfigureDiskFaults(faults);
  RetryPolicy retry;
  retry.max_retries = 25;
  retry.backoff_initial_us = 1;
  retry.backoff_max_us = 10;
  auto retried = EquiDepthHistogram::Build(*index, 8, retry);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried->total_entries(), clean->total_entries());
  EXPECT_EQ(retried->min_key(), clean->min_key());
  EXPECT_EQ(retried->max_key(), clean->max_key());
  cluster.ConfigureDiskFaults(sim::FaultOptions{});
}

}  // namespace
}  // namespace lakeharbor::rede
