// The one SMPE engine: AsyncExecutor (uncapped, SmpeEngine::kAsync) and
// SmpeExecutor (the same engine capped at threads_per_node running tasks
// per node) must agree — same checksums on Q5'/claims/point-lookup
// workloads, same retry/failover semantics under injected faults and
// outages — with zero leaked in-flight continuation frames after
// cancellation, deadline expiry, or executor teardown, a cap that holds
// across overlapping runs without starting a thread, and work-stealing
// hand-offs that spread one worker's fan-out and never let its local
// backlog starve a submission from outside.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "claims/generator.h"
#include "claims/loader.h"
#include "claims/queries.h"
#include "common/clock.h"
#include "common/string_util.h"
#include "io/key_codec.h"
#include "io/placement.h"
#include "obs/profile.h"
#include "rede/async_executor.h"
#include "rede/builtin_derefs.h"
#include "rede/builtin_refs.h"
#include "rede/engine.h"
#include "rede/record_cache.h"
#include "rede/smpe_executor.h"
#include "sim/cluster.h"
#include "process_threads.h"
#include "tpch/generator.h"
#include "tpch/loader.h"
#include "tpch/q5.h"

namespace lakeharbor::rede {
namespace {

/// The DAG-derived counters that must be identical whichever engine (or
/// schedule) executed the job.
void ExpectDagMetricsEq(const MetricsSnapshot& a, const MetricsSnapshot& b) {
  EXPECT_EQ(a.ref_invocations, b.ref_invocations);
  EXPECT_EQ(a.deref_invocations, b.deref_invocations);
  EXPECT_EQ(a.tuples_emitted, b.tuples_emitted);
  EXPECT_EQ(a.broadcasts, b.broadcasts);
  EXPECT_EQ(a.output_tuples, b.output_tuples);
  ASSERT_EQ(a.per_stage.size(), b.per_stage.size());
  for (size_t s = 0; s < a.per_stage.size(); ++s) {
    EXPECT_EQ(a.per_stage[s].invocations, b.per_stage[s].invocations) << s;
    EXPECT_EQ(a.per_stage[s].emitted, b.per_stage[s].emitted) << s;
  }
}

std::multiset<std::string> Canonical(const std::vector<Tuple>& tuples) {
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

StatusOr<std::vector<Tuple>> Collect(Executor& executor, const Job& job,
                                     MetricsSnapshot* metrics = nullptr) {
  TupleCollector sink;
  LH_ASSIGN_OR_RETURN(JobResult result, executor.Execute(job, sink.AsSink()));
  if (metrics != nullptr) *metrics = result.metrics;
  return sink.TakeTuples();
}

/// Zero tasks in flight at the end of a traced async run. Execute returns
/// only once the run's in-flight count reached zero; on top of that, every
/// task a worker started also finished (one queue-wait span per started
/// task, one work span per finished one; inline referencers have neither),
/// none was dropped, and no cache admission outlived its frame.
void ExpectNothingInFlight(const JobResult& result, const RecordCache* cache) {
  ASSERT_NE(result.trace, nullptr);
  size_t started = 0;
  size_t finished = 0;
  for (const obs::Span& span : result.trace->spans) {
    switch (span.kind) {
      case obs::SpanKind::kQueueWait:
        ++started;
        break;
      case obs::SpanKind::kDereference:
      case obs::SpanKind::kDerefBatch:
        ++finished;
        break;
      case obs::SpanKind::kReferencer:
        if (span.AttrOr("inline", 0) == 0) ++finished;
        break;
      default:
        break;
    }
  }
  EXPECT_GT(started, 0u);
  EXPECT_EQ(started, finished);
  EXPECT_EQ(result.metrics.tasks_dropped_on_failure, 0u);
  if (cache != nullptr) {
    EXPECT_EQ(cache->inflight(), 0u);
  }
}

// --------------------------------------------- workload checksum parity

/// Real workloads (TPC-H Q5', the claims queries, primary-key lookups) run
/// through BOTH engines against the same lake; the async engine must return
/// bit-identical answers and the same DAG counters. Device timing starts
/// off; a test may flip it on, at time scale 0.05.
struct WorkloadParity : ::testing::Test {
  WorkloadParity()
      : cluster(sim::ClusterOptions::ForNodes(4).EnableTiming(false, 0.05)) {
    engine = std::make_unique<Engine>(&cluster, EngineOptions{});
    tpch::TpchConfig tpch_config;
    tpch_config.scale_factor = 0.002;
    tpch_config.seed = 42;
    tpch_data = tpch::Generate(tpch_config);
    LH_CHECK(tpch::LoadIntoLake(*engine, tpch_data).ok());

    claims::ClaimsConfig claims_config;
    claims_config.num_claims = 1000;
    claims_config.seed = 7;
    claims_data = claims::GenerateClaims(claims_config);
    LH_CHECK(claims::LoadRawClaims(*engine, claims_data).ok());
  }

  /// Runs `job` on both engines into `threaded_out` / `async_out`. The
  /// async run must match the threaded run's DAG counters, reconcile its
  /// profile and end with nothing in flight.
  static void RunBoth(SmpeExecutor& threaded, AsyncExecutor& async,
                      const Job& job, std::vector<Tuple>* threaded_out,
                      std::vector<Tuple>* async_out) {
    SCOPED_TRACE(job.name());
    TupleCollector threaded_sink;
    TupleCollector async_sink;
    auto threaded_result = threaded.Execute(job, threaded_sink.AsSink());
    ASSERT_TRUE(threaded_result.ok()) << threaded_result.status().ToString();
    auto async_result = async.Execute(job, async_sink.AsSink());
    ASSERT_TRUE(async_result.ok()) << async_result.status().ToString();
    ExpectDagMetricsEq(async_result->metrics, threaded_result->metrics);
    const obs::JobProfile profile = ProfileOf(*async_result);
    EXPECT_TRUE(profile.Reconciles())
        << (profile.warnings().empty() ? "" : profile.warnings().front());
    ExpectNothingInFlight(*async_result, async.record_cache());
    *threaded_out = threaded_sink.TakeTuples();
    *async_out = async_sink.TakeTuples();
  }

  /// Q5' at selectivity 0.3, claims Q1-Q3 and four primary-key lookups on
  /// a threaded and an async executor built from `options` (traced).
  void ExpectParity(SmpeOptions options) {
    options.trace_sample_n = 1;
    SmpeExecutor threaded(&cluster, options);
    AsyncExecutor async(&cluster, options);

    // TPC-H Q5': both engines reproduce the sequential oracle.
    tpch::Q5Params q5_params = tpch::MakeQ5Params(0.3);
    auto q5_oracle = tpch::Q5Oracle(tpch_data, q5_params);
    ASSERT_TRUE(q5_oracle.ok());
    auto q5_job = tpch::BuildQ5RedeJob(*engine, q5_params);
    ASSERT_TRUE(q5_job.ok());
    std::vector<Tuple> q5_threaded, q5_async;
    ASSERT_NO_FATAL_FAILURE(
        RunBoth(threaded, async, *q5_job, &q5_threaded, &q5_async));
    auto threaded_summary = tpch::SummarizeRedeOutput(q5_threaded);
    auto async_summary = tpch::SummarizeRedeOutput(q5_async);
    ASSERT_TRUE(threaded_summary.ok());
    ASSERT_TRUE(async_summary.ok());
    EXPECT_EQ(*threaded_summary, *q5_oracle);
    EXPECT_EQ(*async_summary, *q5_oracle);

    // Every claims query agrees with its oracle on both engines.
    for (const claims::ClaimsQuery& query : claims::AllQueries()) {
      claims::ClaimsAnswer oracle = claims::ClaimsOracle(claims_data, query);
      auto job = claims::BuildRawClaimsJob(*engine, query);
      ASSERT_TRUE(job.ok()) << query.name;
      std::vector<Tuple> threaded_out, async_out;
      ASSERT_NO_FATAL_FAILURE(
          RunBoth(threaded, async, *job, &threaded_out, &async_out));
      auto threaded_answer = claims::SummarizeRawOutput(threaded_out);
      auto async_answer = claims::SummarizeRawOutput(async_out);
      ASSERT_TRUE(threaded_answer.ok()) << query.name;
      ASSERT_TRUE(async_answer.ok()) << query.name;
      EXPECT_EQ(*threaded_answer, oracle) << query.name;
      EXPECT_EQ(*async_answer, oracle) << query.name;
    }

    // Primary-key lookups return the identical record bytes.
    auto claims_file = engine->catalog().Get(claims::names::kRawClaims);
    ASSERT_TRUE(claims_file.ok());
    for (int64_t claim_id : {1, 17, 400, 999}) {
      auto job = JobBuilder("pk-" + std::to_string(claim_id))
                     .Initial(Tuple::Point(
                         io::Pointer::Keyed(io::EncodeInt64Key(claim_id))))
                     .Add(MakePointDereferencer("pk-deref", *claims_file))
                     .Build();
      ASSERT_TRUE(job.ok());
      std::vector<Tuple> threaded_out, async_out;
      ASSERT_NO_FATAL_FAILURE(
          RunBoth(threaded, async, *job, &threaded_out, &async_out));
      ASSERT_EQ(threaded_out.size(), 1u) << claim_id;
      EXPECT_EQ(Canonical(async_out), Canonical(threaded_out)) << claim_id;
    }
  }

  sim::Cluster cluster;
  std::unique_ptr<Engine> engine;
  tpch::TpchData tpch_data;
  claims::ClaimsData claims_data;
};

TEST_F(WorkloadParity, Q5ClaimsAndPkLookupsChecksumIdenticallyToThreaded) {
  SmpeOptions options;
  options.async_workers = 2;
  ExpectParity(options);
}

/// The worker hand-off paths over every combination of: one worker (its
/// slot, its own run queue and the shared queue) or four (stealing from
/// each other's queues too); device timing off (every completion is
/// delivered inline on the submitting worker and stays with it) or on at
/// time scale 0.05 (completions arrive from the device timer thread through
/// the shared queue); and batching and caching off, or batches of up to 16
/// with the record cache on (ExecuteBatchAsync's inline completions, cache
/// hits that complete without a device op).
using HandoffCell = std::tuple<size_t, bool, bool>;

class HandoffMatrix : public WorkloadParity,
                      public ::testing::WithParamInterface<HandoffCell> {};

TEST_P(HandoffMatrix, AsyncMatchesOraclesAndThreadedCounters) {
  const auto& [workers, timed, batch_and_cache] = GetParam();
  SmpeOptions options;
  options.async_workers = workers;
  if (batch_and_cache) {
    options.batch.enabled = true;
    options.batch.max_batch_size = 16;
    options.cache.enabled = true;
  }
  cluster.SetTimingEnabled(timed);
  ExpectParity(options);
  cluster.SetTimingEnabled(false);
}

std::string HandoffCellName(
    const ::testing::TestParamInfo<HandoffCell>& info) {
  const auto& [workers, timed, batch_and_cache] = info.param;
  return "Workers" + std::to_string(workers) +
         (timed ? "Timed" : "Untimed") +
         (batch_and_cache ? "BatchCache" : "Plain");
}

INSTANTIATE_TEST_SUITE_P(Cells, HandoffMatrix,
                         ::testing::Combine(::testing::Values<size_t>(1, 4),
                                            ::testing::Bool(),
                                            ::testing::Bool()),
                         HandoffCellName);

// ------------------------------------------------------- faults, outages

/// The failover_test employee/department lab, reused for the async engine's
/// retry and failover paths (failover_test's HedgedReads cells cover both
/// engines' hedging).
struct AsyncLab {
  static constexpr int kEmployees = 120;
  static constexpr int kDepts = 10;

  explicit AsyncLab(
      uint32_t rf,
      sim::ClusterOptions cluster_options = sim::ClusterOptions::ForNodes(4))
      : cluster(cluster_options) {
    engine = std::make_unique<Engine>(&cluster, EngineOptions{});
    auto emp = std::make_shared<io::PartitionedFile>(
        "emp", std::make_shared<io::HashPartitioner>(8), &cluster);
    emp->SetReplicationFactor(rf);
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
    dept->SetReplicationFactor(rf);
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

  sim::Cluster cluster;
  std::unique_ptr<Engine> engine;
};

TEST(AsyncFaults, TransientDiskFaultsAreRetriedToTheIdenticalResult) {
  AsyncLab lab(1);
  auto job = lab.DeptJoinJob();
  ASSERT_TRUE(job.ok());

  // One worker too: a fault decided at submission completes inline, so the
  // retry path then runs through the worker's local slot.
  for (size_t workers : {2, 1}) {
    SCOPED_TRACE("async_workers=" + std::to_string(workers));
    SmpeOptions options;
    options.async_workers = workers;
    AsyncExecutor clean_exec(&lab.cluster, options);
    MetricsSnapshot clean_metrics;
    auto clean = Collect(clean_exec, *job, &clean_metrics);
    ASSERT_TRUE(clean.ok());
    ASSERT_EQ(clean->size(), static_cast<size_t>(AsyncLab::kEmployees));

    SmpeOptions retrying = options;
    retrying.retry.max_retries = 6;
    retrying.retry.backoff_initial_us = 1;
    retrying.retry.backoff_max_us = 10;
    AsyncExecutor retry_exec(&lab.cluster, retrying);
    for (uint32_t n = 0; n < lab.cluster.num_nodes(); ++n) {
      lab.cluster.node(n).disk().InjectFaultEvery(16);
    }
    MetricsSnapshot faulty_metrics;
    auto faulty = Collect(retry_exec, *job, &faulty_metrics);
    for (uint32_t n = 0; n < lab.cluster.num_nodes(); ++n) {
      lab.cluster.node(n).disk().ClearFault();
    }
    ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
    EXPECT_EQ(Canonical(*faulty), Canonical(*clean));
    EXPECT_GT(faulty_metrics.retries, 0u);
    // The retry timers re-ran whole attempts, never half of one: invocation
    // counts grew by exactly the retry count.
    EXPECT_EQ(faulty_metrics.deref_invocations,
              clean_metrics.deref_invocations + faulty_metrics.retries);
  }
}

TEST(AsyncFaults, WholeNodeOutageFailsOverToReplicas) {
  AsyncLab lab(2);
  auto job = lab.DeptJoinJob();
  ASSERT_TRUE(job.ok());

  SmpeOptions options;
  options.async_workers = 2;
  AsyncExecutor executor(&lab.cluster, options);
  MetricsSnapshot clean_metrics;
  auto clean = Collect(executor, *job, &clean_metrics);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean_metrics.failovers, 0u);

  lab.cluster.SetNodeOutage(2, true);
  MetricsSnapshot outage_metrics;
  auto survived = Collect(executor, *job, &outage_metrics);
  lab.cluster.SetNodeOutage(2, false);
  ASSERT_TRUE(survived.ok()) << survived.status().ToString();
  EXPECT_EQ(Canonical(*survived), Canonical(*clean));
  EXPECT_GT(outage_metrics.failovers, 0u);
  EXPECT_GT(outage_metrics.replica_reads, 0u);
  EXPECT_EQ(outage_metrics.retries, 0u);  // failover alone carried the job
}

// ------------------------- cancellation, deadlines, zero leaked frames

/// Dereferencer that sleeps per tuple (cooperatively checking the run's
/// CancelToken first) — a stand-in for a pathologically slow device.
class SleepyDeref final : public Dereferencer {
 public:
  SleepyDeref(std::string name, uint64_t sleep_us,
              std::shared_ptr<std::atomic<uint64_t>> executed)
      : Dereferencer(std::move(name)),
        sleep_us_(sleep_us),
        executed_(std::move(executed)) {}

  Status Execute(const ExecContext& ctx, const Tuple& input,
                 std::vector<Tuple>* out) const override {
    if (ctx.cancel != nullptr && ctx.cancel->cancelled()) {
      return ctx.cancel->cause();
    }
    executed_->fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us_));
    out->push_back(input);
    return Status::OK();
  }

 private:
  uint64_t sleep_us_;
  std::shared_ptr<std::atomic<uint64_t>> executed_;
};

/// Fans one input out into `n` keyed tuples; with `only_on` set, only on
/// that node (elsewhere it emits nothing).
class FanOut final : public Referencer {
 public:
  FanOut(std::string name, int n,
         std::optional<sim::NodeId> only_on = std::nullopt)
      : Referencer(std::move(name)), n_(n), only_on_(only_on) {}
  Status Execute(const ExecContext& ctx, const Tuple&,
                 std::vector<Tuple>* out) const override {
    if (only_on_.has_value() && ctx.node != *only_on_) return Status::OK();
    for (int i = 0; i < n_; ++i) {
      out->push_back(Tuple::Point(io::Pointer::Keyed(io::EncodeInt64Key(i))));
    }
    return Status::OK();
  }

 private:
  int n_;
  std::optional<sim::NodeId> only_on_;
};

StatusOr<Job> SleepyJob(uint64_t sleep_us, int fan_out,
                        std::shared_ptr<std::atomic<uint64_t>> executed) {
  return JobBuilder("sleepy")
      .Initial(Tuple::Range(io::Pointer::Broadcast(io::EncodeInt64Key(0)),
                            io::Pointer::Broadcast(io::EncodeInt64Key(1))))
      .Add(std::make_shared<SleepyDeref>("gate", 0, executed))
      .Add(std::make_shared<FanOut>("fan", fan_out))
      .Add(std::make_shared<SleepyDeref>("sleepy", sleep_us, executed))
      .Build();
}

TEST(AsyncCancellation, DeadlineExpiryDrainsWithZeroLeakedContinuations) {
  sim::Cluster cluster(sim::ClusterOptions::ForNodes(4));
  SmpeOptions options;
  options.async_workers = 1;  // serialize: most tasks still queued at expiry
  options.deadline_ms = 10;
  options.cache.enabled = true;
  AsyncExecutor executor(&cluster, options);

  auto executed = std::make_shared<std::atomic<uint64_t>>(0);
  auto job = SleepyJob(/*sleep_us=*/20000, /*fan_out=*/32, executed);
  ASSERT_TRUE(job.ok());
  StopWatch watch;
  TupleCollector sink;
  auto result = executor.Execute(*job, sink.AsSink());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  EXPECT_LT(watch.ElapsedMillis(), 500.0);
  EXPECT_LT(executed->load(), 4u + 4u * 32u);
  // No continuation frame left a dangling admission reservation behind.
  ASSERT_NE(executor.record_cache(), nullptr);
  EXPECT_EQ(executor.record_cache()->inflight(), 0u);

  // Zero leaked frames: the very same executor immediately runs a fast job
  // to completion (a leaked in-flight count would wedge its quiescence).
  auto quick = JobBuilder("quick")
                   .Initial(Tuple::Range(
                       io::Pointer::Broadcast(io::EncodeInt64Key(0)),
                       io::Pointer::Broadcast(io::EncodeInt64Key(1))))
                   .Add(std::make_shared<SleepyDeref>("noop", 0, executed))
                   .Build();
  ASSERT_TRUE(quick.ok());
  TupleCollector quick_sink;
  auto ok = executor.Execute(*quick, quick_sink.AsSink());
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(AsyncCancellation, ExternalCancelMidRunCompletesPromptlyAndCleanly) {
  sim::Cluster cluster(sim::ClusterOptions::ForNodes(4));
  SmpeOptions options;
  options.async_workers = 1;
  AsyncExecutor executor(&cluster, options);

  auto executed = std::make_shared<std::atomic<uint64_t>>(0);
  auto job = SleepyJob(/*sleep_us=*/20000, /*fan_out=*/32, executed);
  ASSERT_TRUE(job.ok());

  CancelToken cancel;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    cancel.Cancel(Status::Aborted("tenant evicted"));
  });
  StopWatch watch;
  auto result = executor.Execute(*job, nullptr, &cancel);
  canceller.join();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsAborted()) << result.status().ToString();
  EXPECT_LT(watch.ElapsedMillis(), 5000.0);

  // And the Submit path: the completion callback fires exactly once even
  // when the run is cancelled between submission and completion.
  CancelToken cancel2;
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<int> fired{0};
  bool done = false;
  auto job2 = SleepyJob(/*sleep_us=*/20000, /*fan_out=*/32, executed);
  ASSERT_TRUE(job2.ok());
  executor.Submit(*job2, nullptr, &cancel2, [&](StatusOr<JobResult> r) {
    fired.fetch_add(1, std::memory_order_relaxed);
    EXPECT_FALSE(r.ok());
    // Notify under the lock: `cv` lives on the test's stack, and an unlocked
    // notify can race its destruction once the waiter sees `done`.
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_all();
  });
  cancel2.Cancel(Status::Aborted("cancelled right after submit"));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
  }
  EXPECT_EQ(fired.load(), 1);

  // Executor shutdown right after cancelled runs: the destructor joins the
  // pool with nothing in flight — a leaked continuation would deadlock or
  // crash here (TSan-guarded in the chaos suite).
}

TEST(AsyncCancellation, RetryBackoffTimersHonorCancellation) {
  // An unreplicated lab with one node down: every read routed there fails
  // kUnavailable (retryable), so tasks climb a long backoff ladder. Cancel
  // must cut that ladder short within one backoff quantum instead of
  // draining all of it.
  AsyncLab lab(1);
  auto job = lab.DeptJoinJob();
  ASSERT_TRUE(job.ok());

  // At one worker the outage's kUnavailable completes inline at submission
  // and reaches the retry gate through the worker's local slot.
  for (size_t workers : {2, 1}) {
    SCOPED_TRACE("async_workers=" + std::to_string(workers));
    SmpeOptions options;
    options.async_workers = workers;
    options.retry.max_retries = 50;
    options.retry.backoff_initial_us = 200'000;  // 0.2 s per rung
    options.retry.backoff_max_us = 200'000;
    options.retry.backoff_multiplier = 1.0;
    AsyncExecutor executor(&lab.cluster, options);
    lab.cluster.SetNodeOutage(2, true);
    CancelToken cancel;
    std::thread canceller([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      cancel.Cancel(Status::Aborted("give up"));
    });
    StopWatch watch;
    auto result = executor.Execute(*job, nullptr, &cancel);
    canceller.join();
    lab.cluster.SetNodeOutage(2, false);
    ASSERT_FALSE(result.ok());
    // 50 retries x 0.2 s would be ~10 s; the cancel (plus at most one
    // backoff interval the timer was already committed to) must land way
    // earlier.
    EXPECT_LT(watch.ElapsedMillis(), 5000.0);
  }
}

// ------------------------------------------- one engine: the per-node cap

/// Blocking Dereferencer (no continuation form, so each call holds a
/// worker) that passes its input through after `sleep_us` and records, per
/// node, the most calls that ran at once, plus how many calls finished and
/// on how many threads.
class NodePeakDeref final : public Dereferencer {
 public:
  NodePeakDeref(std::string name, uint32_t nodes, uint64_t sleep_us)
      : Dereferencer(std::move(name)), gauges_(nodes), sleep_us_(sleep_us) {}

  Status Execute(const ExecContext& ctx, const Tuple& input,
                 std::vector<Tuple>* out) const override {
    Gauge& gauge = gauges_[ctx.node];
    const int now = gauge.running.fetch_add(1) + 1;
    int peak = gauge.peak.load();
    while (now > peak && !gauge.peak.compare_exchange_weak(peak, now)) {
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      threads_.insert(std::this_thread::get_id());
    }
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us_));
    gauge.running.fetch_sub(1);
    calls_.fetch_add(1);
    out->push_back(input);
    return Status::OK();
  }

  int peak(sim::NodeId node) const { return gauges_[node].peak.load(); }
  uint64_t calls() const { return calls_.load(); }
  size_t threads() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return threads_.size();
  }

 private:
  struct Gauge {
    std::atomic<int> running{0};
    std::atomic<int> peak{0};
  };
  mutable std::vector<Gauge> gauges_;
  uint64_t sleep_us_;
  mutable std::atomic<uint64_t> calls_{0};
  mutable std::mutex mutex_;
  mutable std::set<std::thread::id> threads_;  // guarded by mutex_
};

TEST(OneEngine, OverlappingRunsShareTheCapOfEachNode) {
  constexpr uint32_t kNodes = 4;
  constexpr int kFanOut = 24;
  sim::Cluster cluster(sim::ClusterOptions::ForNodes(kNodes));
  SmpeOptions options;
  options.threads_per_node = 2;
  options.async_workers = 8;  // enough workers for two jobs' worth of slots
  SmpeExecutor executor(&cluster, options);

  // Each job seeds one task per node, which fans out kFanOut blocking
  // calls on that node. Both jobs share one gauge.
  auto executed = std::make_shared<std::atomic<uint64_t>>(0);
  auto blocking =
      std::make_shared<NodePeakDeref>("blocking", kNodes, /*sleep_us=*/2000);
  auto make_job = [&](const std::string& name) {
    return JobBuilder(name)
        .Initial(Tuple::Range(io::Pointer::Broadcast(io::EncodeInt64Key(0)),
                              io::Pointer::Broadcast(io::EncodeInt64Key(1))))
        .Add(std::make_shared<SleepyDeref>("gate", 0, executed))
        .Add(std::make_shared<FanOut>("fan", kFanOut))
        .Add(blocking)
        .Build();
  };
  auto job_a = make_job("a");
  auto job_b = make_job("b");
  ASSERT_TRUE(job_a.ok() && job_b.ok());

  StatusOr<std::vector<Tuple>> out_a = Status::Aborted("not run");
  StatusOr<std::vector<Tuple>> out_b = Status::Aborted("not run");
  std::thread second([&] { out_b = Collect(executor, *job_b); });
  out_a = Collect(executor, *job_a);
  second.join();

  ASSERT_TRUE(out_a.ok()) << out_a.status().ToString();
  ASSERT_TRUE(out_b.ok()) << out_b.status().ToString();
  std::multiset<std::string> expected;
  for (uint32_t n = 0; n < kNodes; ++n) {
    for (int i = 0; i < kFanOut; ++i) {
      expected.insert(io::EncodeInt64Key(i));
    }
  }
  for (const auto* out : {&*out_a, &*out_b}) {
    std::multiset<std::string> keys;
    for (const Tuple& tuple : *out) keys.insert(tuple.pointer.key);
    EXPECT_EQ(keys, expected);
  }
  int highest = 0;
  for (uint32_t n = 0; n < kNodes; ++n) {
    EXPECT_LE(blocking->peak(n), 2) << "node " << n;
    highest = std::max(highest, blocking->peak(n));
  }
  EXPECT_EQ(highest, 2);
}

TEST(OneEngine, CappedPeakInFlightStaysWithinNodesTimesCap) {
  constexpr uint32_t kNodes = 8;
  constexpr int kKeys = 256;
  sim::Cluster cluster(
      sim::ClusterOptions::ForNodes(kNodes).EnableTiming(true, 0.05));
  auto deep = std::make_shared<io::PartitionedFile>(
      "deep", std::make_shared<io::HashPartitioner>(kNodes * 2), &cluster);
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = io::EncodeInt64Key(i);
    ASSERT_TRUE(
        deep->Append(key, key, io::Record("v" + std::to_string(i))).ok());
  }
  deep->Seal();
  // Every node fans out kKeys timed point reads (most of them remote).
  auto executed = std::make_shared<std::atomic<uint64_t>>(0);
  auto job =
      JobBuilder("deep-fan-out")
          .Initial(Tuple::Range(io::Pointer::Broadcast(io::EncodeInt64Key(0)),
                                io::Pointer::Broadcast(io::EncodeInt64Key(1))))
          .Add(std::make_shared<SleepyDeref>("gate", 0, executed))
          .Add(std::make_shared<FanOut>("fan", kKeys))
          .Add(MakePointDereferencer("deref", deep))
          .Build();
  ASSERT_TRUE(job.ok());

  SmpeOptions options;
  options.threads_per_node = 2;
  options.async_workers = 2;
  SmpeExecutor capped(&cluster, options);
  AsyncExecutor uncapped(&cluster, options);
  MetricsSnapshot capped_metrics;
  auto capped_out = Collect(capped, *job, &capped_metrics);
  auto uncapped_out = Collect(uncapped, *job);
  ASSERT_TRUE(capped_out.ok()) << capped_out.status().ToString();
  ASSERT_TRUE(uncapped_out.ok()) << uncapped_out.status().ToString();
  EXPECT_EQ(capped_out->size(), static_cast<size_t>(kNodes * kKeys));
  EXPECT_EQ(Canonical(*capped_out), Canonical(*uncapped_out));
  EXPECT_GT(capped_metrics.peak_parallel_derefs, 0);
  EXPECT_LE(capped_metrics.peak_parallel_derefs,
            static_cast<int64_t>(kNodes * options.threads_per_node));
}

TEST(OneEngine, ConstructingTheCappedEngineStartsNoPoolThreads) {
  if (ProcessThreads() < 0) GTEST_SKIP() << "/proc/self/status unreadable";
  sim::Cluster cluster(sim::ClusterOptions::ForNodes(8));
  SmpeOptions options;
  options.threads_per_node = 16;
  options.async_workers = 2;
  const int before = ProcessThreads();
  SmpeExecutor executor(&cluster, options);
  // The workers, plus at most the executor's timer thread.
  EXPECT_LE(ProcessThreads() - before,
            static_cast<int>(options.async_workers) + 1);
}

// ------------------------------------------ work stealing and the poll

/// Passes its input through, first reading how many calls `probe` had
/// finished when this one ran.
class ProbeReader final : public Dereferencer {
 public:
  ProbeReader(std::string name, std::shared_ptr<const NodePeakDeref> probe)
      : Dereferencer(std::move(name)), probe_(std::move(probe)) {}
  Status Execute(const ExecContext&, const Tuple& input,
                 std::vector<Tuple>* out) const override {
    seen_.store(probe_->calls());
    out->push_back(input);
    return Status::OK();
  }
  uint64_t seen() const { return seen_.load(); }

 private:
  std::shared_ptr<const NodePeakDeref> probe_;
  mutable std::atomic<uint64_t> seen_{0};
};

TEST(WorkStealing, FanOutOfOneWorkerRunsOnSeveralWorkers) {
  constexpr int kFanOut = 64;
  sim::Cluster cluster(sim::ClusterOptions::ForNodes(4));
  SmpeOptions options;
  options.async_workers = 4;
  AsyncExecutor executor(&cluster, options);
  // One keyed initial task on node 0: the worker that runs its gate
  // dispatches all kFanOut blocking calls, onto its own slot and queue.
  auto executed = std::make_shared<std::atomic<uint64_t>>(0);
  auto probe = std::make_shared<NodePeakDeref>("blocking", 4,
                                               /*sleep_us=*/1000);
  auto job = JobBuilder("fan-out")
                 .Initial(Tuple::Point(
                     io::Pointer::Keyed(io::EncodeInt64Key(0))))
                 .Add(std::make_shared<SleepyDeref>("gate", 0, executed))
                 .Add(std::make_shared<FanOut>("fan", kFanOut))
                 .Add(probe)
                 .Build();
  ASSERT_TRUE(job.ok());
  auto out = Collect(executor, *job);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->size(), static_cast<size_t>(kFanOut));
  EXPECT_EQ(probe->calls(), static_cast<uint64_t>(kFanOut));
  // Idle workers stole from the dispatching worker's queue.
  EXPECT_GE(probe->threads(), 2u);
  EXPECT_GE(probe->peak(0), 2);
}

TEST(WorkStealing, OutsideSubmissionWaitsBoundedLocalWork) {
  constexpr int kCalls = 2000;
  constexpr uint64_t kBound = 200;
  for (const bool capped : {false, true}) {
    for (const size_t workers : {1, 2}) {
      SCOPED_TRACE(std::string(capped ? "capped" : "uncapped") +
                   " workers=" + std::to_string(workers));
      sim::Cluster cluster(sim::ClusterOptions::ForNodes(4));
      SmpeOptions options;
      options.async_workers = workers;
      options.threads_per_node = 64;
      std::unique_ptr<AsyncExecutor> executor =
          capped ? std::make_unique<SmpeExecutor>(&cluster, options)
                 : std::make_unique<AsyncExecutor>(&cluster, options);
      // Job A: node 1 alone fans out kCalls blocking calls, so its workers
      // always have local work (on the capped engine, node 1's parked
      // frames, each started by the task that frees its slot).
      auto executed = std::make_shared<std::atomic<uint64_t>>(0);
      auto probe = std::make_shared<NodePeakDeref>("blocking", 4,
                                                   /*sleep_us=*/50);
      auto job_a = JobBuilder("a")
                       .Initial(Tuple::Range(
                           io::Pointer::Broadcast(io::EncodeInt64Key(0)),
                           io::Pointer::Broadcast(io::EncodeInt64Key(1))))
                       .Add(std::make_shared<SleepyDeref>("gate", 0, executed))
                       .Add(std::make_shared<FanOut>("fan", kCalls, 1))
                       .Add(probe)
                       .Build();
      // Job B: one keyed task, seeded on idle node 0 from this thread, so
      // it reaches the workers through the shared queue.
      auto reader = std::make_shared<ProbeReader>("reader", probe);
      auto job_b = JobBuilder("b")
                       .Initial(Tuple::Point(
                           io::Pointer::Keyed(io::EncodeInt64Key(0))))
                       .Add(reader)
                       .Build();
      ASSERT_TRUE(job_a.ok() && job_b.ok());

      StatusOr<std::vector<Tuple>> out_a = Status::Aborted("not run");
      std::thread run_a([&] { out_a = Collect(*executor, *job_a); });
      while (probe->calls() == 0) std::this_thread::yield();
      const uint64_t before = probe->calls();
      auto out_b = Collect(*executor, *job_b);
      run_a.join();

      ASSERT_TRUE(out_a.ok()) << out_a.status().ToString();
      ASSERT_TRUE(out_b.ok()) << out_b.status().ToString();
      EXPECT_EQ(out_a->size(), static_cast<size_t>(kCalls));
      EXPECT_EQ(out_b->size(), 1u);
      // A worker looks at the shared queue every few dozen items it runs,
      // however much local work it has.
      EXPECT_LT(reader->seen() - before, kBound)
          << "B ran after " << reader->seen() - before << " of A's calls";
    }
  }
}

}  // namespace
}  // namespace lakeharbor::rede
