// End-to-end record integrity (ISSUE 9): seeded bit-rot injection, the
// checksum envelope, read-repair through the failover paths of BOTH SMPE
// engines, kCorruption's non-retryable pin, and the throttled background
// scrubber. The load-bearing properties:
//
//   - a fixed fault seed replays the exact corruption pattern (counters
//     and results bit-for-bit);
//   - with rf >= 2 a corrupted replica is detected, failed over, and
//     rewritten in place — query results stay bit-identical to the
//     fault-free baseline and unrepairable stays 0;
//   - with rf == 1 (or every replica rotten) the job fails kCorruption
//     with the record/partition/node context, never returns wrong bytes;
//   - corrupt reads are never re-issued against the same replica by the
//     retry layer (failover advances instead);
//   - the scrubber finds and repairs cold rot under a byte-rate throttle
//     and reports under-replicated and unrepairable partitions, with the
//     same report and device charges on every executor.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "common/string_util.h"
#include "io/key_codec.h"
#include "io/placement.h"
#include "io/record.h"
#include "io/scrubber.h"
#include "rede/builtin_derefs.h"
#include "rede/builtin_refs.h"
#include "rede/engine.h"
#include "rede/smpe_executor.h"
#include "sched/scheduler.h"
#include "sim/cluster.h"

namespace lakeharbor::rede {
namespace {

// ------------------------------------------------- the checksum envelope

TEST(ChecksumEnvelope, RecordDetectsSingleBitRot) {
  io::Record record(std::string("42|emp42|2"));
  EXPECT_TRUE(record.ChecksumValid());
  EXPECT_EQ(record.checksum(), io::Record::Checksum(record.slice()));

  for (uint64_t entropy : {0ull, 1ull, 7ull, 0xd6e8feb86659fd93ull}) {
    io::Record rotten = record.CorruptedCopy(entropy);
    // Exactly one bit differs, the envelope still carries the original
    // digest (the lie a rotten sector tells), and verification catches it.
    EXPECT_FALSE(rotten.ChecksumValid()) << entropy;
    EXPECT_EQ(rotten.checksum(), record.checksum()) << entropy;
    ASSERT_EQ(rotten.size(), record.size());
    int bit_diffs = 0;
    for (size_t i = 0; i < record.size(); ++i) {
      uint8_t x = static_cast<uint8_t>(record.bytes()[i] ^ rotten.bytes()[i]);
      while (x != 0) {
        bit_diffs += x & 1;
        x >>= 1;
      }
    }
    EXPECT_EQ(bit_diffs, 1) << entropy;
  }
}

TEST(ChecksumEnvelope, EmptyPayloadHasNoBitsToRot) {
  io::Record empty;
  EXPECT_TRUE(empty.ChecksumValid());
  io::Record copy = empty.CorruptedCopy(12345);
  EXPECT_TRUE(copy.ChecksumValid());
  EXPECT_EQ(copy.bytes(), empty.bytes());
}

// --------------------------------------- kCorruption is pinned fail-fast

TEST(CorruptionStatus, PinnedNonRetryable) {
  // Retrying a corrupt read against the SAME replica re-reads the same
  // rotten sector: it can never succeed and burns the retry budget the
  // transient faults need. The pin keeps corruption on the failover path.
  EXPECT_FALSE(StatusCodeIsRetryable(StatusCode::kCorruption));
  Status corrupt = Status::Corruption("checksum mismatch");
  EXPECT_TRUE(corrupt.IsCorruption());
  EXPECT_FALSE(corrupt.IsRetryable());
  // The transient kinds stay retryable — the contrast the pin protects.
  EXPECT_TRUE(StatusCodeIsRetryable(StatusCode::kUnavailable));
  EXPECT_TRUE(StatusCodeIsRetryable(StatusCode::kIoError));
}

TEST(CorruptionStatus, RunWithRetryNeverReissuesACorruptRead) {
  RetryPolicy policy;
  policy.max_retries = 5;
  policy.backoff_initial_us = 1;
  policy.backoff_max_us = 2;

  int corrupt_attempts = 0;
  std::vector<size_t> observed_retries;
  Status s = RunWithRetry(
      policy,
      [&]() -> Status {
        ++corrupt_attempts;
        return Status::Corruption("replica 0 checksum mismatch");
      },
      [&](size_t attempt, uint64_t) { observed_retries.push_back(attempt); });
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ(corrupt_attempts, 1);  // the rotten replica is never re-read
  EXPECT_TRUE(observed_retries.empty());

  // A transient fault under the same policy IS retried — the fail-fast
  // above is the corruption pin, not a broken retry loop.
  int transient_attempts = 0;
  Status t = RunWithRetry(policy, [&]() -> Status {
    return ++transient_attempts < 3 ? Status::Unavailable("blip")
                                    : Status::OK();
  });
  EXPECT_TRUE(t.ok());
  EXPECT_EQ(transient_attempts, 3);
}

// --------------------------------------------------------- engine fixture

/// The failover_test employee/department dataset: 120 employees over 8
/// partitions, 10 departments over 4, a global B-tree over emp's dept
/// field, all at a configurable replication factor. Faults are configured
/// AFTER loading, so corruption never rots the build itself and
/// ConfigureDiskFaults rewinds the per-device streams for exact replay.
struct IntegrityLab {
  static constexpr int kEmployees = 120;
  static constexpr int kDepts = 10;

  explicit IntegrityLab(
      uint32_t rf, EngineOptions options = {},
      sim::ClusterOptions cluster_options = sim::ClusterOptions::ForNodes(4))
      : cluster(cluster_options) {
    engine = std::make_unique<Engine>(&cluster, options);
    emp = std::make_shared<io::PartitionedFile>(
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

    dept = std::make_shared<io::PartitionedFile>(
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
      LH_ASSIGN_OR_RETURN(int64_t d, ParseInt64(FieldAt(row, '|', 2)));
      LH_ASSIGN_OR_RETURN(int64_t id, ParseInt64(FieldAt(row, '|', 0)));
      posting.index_key = io::EncodeInt64Key(d);
      posting.target_partition_key = io::EncodeInt64Key(id);
      posting.target_key = posting.target_partition_key;
      out->push_back(std::move(posting));
      return Status::OK();
    };
    LH_CHECK(engine->BuildStructure(spec, "dept").ok());
  }

  StatusOr<Job> DeptJoinJob() {
    LH_ASSIGN_OR_RETURN(auto idx_file, engine->catalog().Get("emp.dept.idx"));
    auto idx = std::dynamic_pointer_cast<io::BtreeFile>(idx_file);
    LH_CHECK(idx != nullptr);
    JobBuilder builder("dept-join");
    builder
        .Initial(Tuple::Range(io::Pointer::Broadcast(io::EncodeInt64Key(0)),
                              io::Pointer::Broadcast(
                                  io::EncodeInt64Key(kDepts - 1))))
        .Add(MakeRangeDereferencer("deref-idx", idx))
        .Add(MakeIndexEntryReferencer("ref-entry"))
        .Add(MakePointDereferencer("deref-emp", emp))
        .Add(MakeKeyReferencer("ref-dept", EncodedInt64FieldInterpreter(2)))
        .Add(MakePointDereferencer("deref-dept", dept));
    return builder.Build();
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

  sim::Cluster cluster;
  std::unique_ptr<Engine> engine;
  std::shared_ptr<io::PartitionedFile> emp;
  std::shared_ptr<io::PartitionedFile> dept;
};

sim::FaultOptions CorruptionOnly(double rate, uint64_t seed) {
  sim::FaultOptions faults;
  faults.corruption_rate = rate;
  faults.seed = seed;
  return faults;
}

/// The device work charged between two TotalStats() snapshots.
std::map<std::string, uint64_t> ChargedSince(const sim::ResourceTotals& before,
                                             const sim::ResourceTotals& after) {
  return {{"random_reads", after.random_reads - before.random_reads},
          {"sequential_chunks",
           after.sequential_chunks - before.sequential_chunks},
          {"bytes_sequential", after.bytes_sequential - before.bytes_sequential},
          {"writes", after.writes - before.writes},
          {"bytes_written", after.bytes_written - before.bytes_written},
          {"network_messages", after.network_messages - before.network_messages},
          {"network_bytes", after.network_bytes - before.network_bytes},
          {"injected_corruptions",
           after.injected_corruptions - before.injected_corruptions},
          {"service_ops", after.service_us.count - before.service_us.count},
          {"service_us", after.service_us.sum - before.service_us.sum}};
}

/// Scan fault seeds (in a fixed order, so the pick itself is
/// deterministic) for one whose rot pattern the failover survives with at
/// least one corruption detected. A seed whose pattern rots EVERY replica
/// of some logical read correctly fails the job kCorruption — that is the
/// rf=1 test's subject, not a usable specimen here.
constexpr double kRotRate = 0.05;

uint64_t FindSurvivableRotSeed(IntegrityLab& lab, const Job& job) {
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    lab.cluster.ConfigureDiskFaults(CorruptionOnly(kRotRate, seed));
    auto result = lab.engine->ExecuteCollect(job, ExecutionMode::kSmpe);
    if (result.ok() && result->metrics.corruptions_detected > 0) {
      return seed;
    }
  }
  ADD_FAILURE() << "no fault seed in [1, 64] produced a survivable "
                   "corruption pattern — detection or repair is broken";
  return 0;
}

// ------------------------------------------------- deterministic bit-rot

TEST(Integrity, FaultStreamReplaysCorruptionPatternBitForBit) {
  EngineOptions options;
  options.smpe.deterministic_seed = 7;
  IntegrityLab lab(2, options);
  auto job = lab.DeptJoinJob();
  ASSERT_TRUE(job.ok());
  const uint64_t seed = FindSurvivableRotSeed(lab, *job);
  ASSERT_NE(seed, 0u);

  // ConfigureDiskFaults rewinds every device's operation stream, so the
  // same seed yields the same corruption verdicts, op for op.
  lab.cluster.ConfigureDiskFaults(CorruptionOnly(kRotRate, seed));
  auto first = lab.engine->ExecuteCollect(*job, ExecutionMode::kSmpe);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GT(first->metrics.corruptions_detected, 0u);

  lab.cluster.ConfigureDiskFaults(CorruptionOnly(kRotRate, seed));
  auto replay = lab.engine->ExecuteCollect(*job, ExecutionMode::kSmpe);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();

  EXPECT_EQ(IntegrityLab::Canonical(replay->tuples),
            IntegrityLab::Canonical(first->tuples));
  EXPECT_EQ(replay->metrics.corruptions_detected,
            first->metrics.corruptions_detected);
  EXPECT_EQ(replay->metrics.read_repairs, first->metrics.read_repairs);
  EXPECT_EQ(replay->metrics.failovers, first->metrics.failovers);
  EXPECT_EQ(replay->metrics.unrepairable, first->metrics.unrepairable);

  // Rot off again: the clean replay serves the same answer, charging no
  // detections — nothing latched in the files or the engine.
  lab.cluster.ConfigureDiskFaults(sim::FaultOptions{});
  auto quiet = lab.engine->ExecuteCollect(*job, ExecutionMode::kSmpe);
  ASSERT_TRUE(quiet.ok()) << quiet.status().ToString();
  EXPECT_EQ(IntegrityLab::Canonical(quiet->tuples),
            IntegrityLab::Canonical(first->tuples));
  EXPECT_EQ(quiet->metrics.corruptions_detected, 0u);
}

// ------------------------------------------------ read-repair end to end

TEST(Integrity, RfTwoReadRepairMatchesFaultFreeBaselineExactly) {
  EngineOptions options;
  options.smpe.deterministic_seed = 7;
  options.smpe.trace_sample_n = 1;  // profile the run: exact reconciliation

  IntegrityLab clean_lab(2, options);
  auto clean_job = clean_lab.DeptJoinJob();
  ASSERT_TRUE(clean_job.ok());
  auto clean = clean_lab.engine->ExecuteCollect(*clean_job,
                                                ExecutionMode::kSmpe);
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(clean->tuples.size(),
            static_cast<size_t>(IntegrityLab::kEmployees));
  EXPECT_EQ(clean->metrics.corruptions_detected, 0u);
  EXPECT_EQ(clean->metrics.read_repairs, 0u);

  IntegrityLab lab(2, options);
  auto job = lab.DeptJoinJob();
  ASSERT_TRUE(job.ok());
  const uint64_t seed = FindSurvivableRotSeed(lab, *job);
  ASSERT_NE(seed, 0u);
  lab.cluster.ConfigureDiskFaults(CorruptionOnly(kRotRate, seed));
  auto result = lab.engine->ExecuteCollect(*job, ExecutionMode::kSmpe);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Bit-identical answers: a detected-and-repaired rot is invisible in
  // the results, visible only in the counters.
  EXPECT_EQ(IntegrityLab::Canonical(result->tuples),
            IntegrityLab::Canonical(clean->tuples));
  EXPECT_GT(result->metrics.corruptions_detected, 0u);
  EXPECT_GT(result->metrics.read_repairs, 0u);
  EXPECT_EQ(result->metrics.unrepairable, 0u);
  EXPECT_GT(result->metrics.failovers, 0u);
  // No delivered record fails its envelope.
  for (const Tuple& t : result->tuples) {
    for (const io::Record& r : t.records) {
      ASSERT_TRUE(r.ChecksumValid());
    }
  }
  // The repairs landed as real replicated writes on the rotten holders.
  uint64_t bytes_written = 0;
  for (uint32_t n = 0; n < lab.cluster.num_nodes(); ++n) {
    bytes_written += lab.cluster.node(n).disk().stats().bytes_written.load();
  }
  EXPECT_GT(bytes_written, 0u);
  // Exact per-job accounting still reconciles with repairs in the mix.
  obs::JobProfile profile = ProfileOf(*result);
  EXPECT_TRUE(profile.Reconciles())
      << (profile.warnings().empty() ? "" : profile.warnings().front());
}

TEST(Integrity, OneRottenNodeIsRepairedOnEveryExecutor) {
  // rf=2 with every read of one node rotten and the others clean: each
  // partition keeps one clean replica, so the verdicts do not depend on
  // how threads interleave. The threaded and async engines and Fig 7's
  // w/o-SMPE executor run the same dereferencers, so each must fail over,
  // repair and answer exactly like the fault-free run.
  constexpr sim::NodeId kRotten = 1;
  struct Executor {
    const char* name;
    SmpeEngine engine;
    ExecutionMode mode;
  };
  for (const Executor& executor :
       {Executor{"threaded", SmpeEngine::kThreaded, ExecutionMode::kSmpe},
        Executor{"async", SmpeEngine::kAsync, ExecutionMode::kSmpe},
        Executor{"partitioned", SmpeEngine::kThreaded,
                 ExecutionMode::kPartitioned}}) {
    SCOPED_TRACE(executor.name);
    EngineOptions options;
    options.smpe.engine = executor.engine;
    IntegrityLab lab(2, options);
    auto job = lab.DeptJoinJob();
    ASSERT_TRUE(job.ok());
    auto clean = lab.engine->ExecuteCollect(*job, executor.mode);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    ASSERT_EQ(clean->tuples.size(),
              static_cast<size_t>(IntegrityLab::kEmployees));

    lab.cluster.node(kRotten).disk().ConfigureFaults(CorruptionOnly(1.0, 3));
    auto result = lab.engine->ExecuteCollect(*job, executor.mode);
    lab.cluster.node(kRotten).disk().ConfigureFaults(sim::FaultOptions{});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(IntegrityLab::Canonical(result->tuples),
              IntegrityLab::Canonical(clean->tuples));
    EXPECT_GT(result->metrics.corruptions_detected, 0u);
    EXPECT_GT(result->metrics.read_repairs, 0u);
    EXPECT_EQ(result->metrics.unrepairable, 0u);
    for (const Tuple& t : result->tuples) {
      for (const io::Record& r : t.records) {
        ASSERT_TRUE(r.ChecksumValid());
      }
    }
  }
}

TEST(Integrity, VerificationOffDeliversRottenBytesThatFailTheEnvelope) {
  // The negative control: with verification disabled a corrupted read
  // completes "successfully" and hands rotten payloads to the query —
  // exactly the silent wrong-results failure the envelope exists to stop.
  // Primary-key lookups (no payload parsing downstream) make the rot
  // observable in the delivered bytes themselves.
  EngineOptions options;
  options.smpe.deterministic_seed = 7;
  IntegrityLab lab(2, options);
  lab.emp->SetVerifyChecksums(false);

  lab.cluster.ConfigureDiskFaults(CorruptionOnly(0.25, 123));
  size_t rotten_records = 0;
  for (int i = 0; i < IntegrityLab::kEmployees; ++i) {
    auto job = JobBuilder("pk-" + std::to_string(i))
                   .Initial(Tuple::Point(
                       io::Pointer::Keyed(io::EncodeInt64Key(i))))
                   .Add(MakePointDereferencer("deref-emp", lab.emp))
                   .Build();
    ASSERT_TRUE(job.ok());
    auto result = lab.engine->ExecuteCollect(*job, ExecutionMode::kSmpe);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->metrics.corruptions_detected, 0u);
    EXPECT_EQ(result->metrics.read_repairs, 0u);
    for (const Tuple& t : result->tuples) {
      for (const io::Record& r : t.records) {
        if (!r.ChecksumValid()) ++rotten_records;
      }
    }
  }
  EXPECT_GT(rotten_records, 0u);
}

TEST(Integrity, RfOneAllReplicasCorruptFailsWithContextThroughScheduler) {
  // rf=1 leaves no sibling to fail over to or repair from: the job must
  // fail kCorruption naming the read, partition, and storage node —
  // surfaced through a sched::JobHandle like any tenant job — and must
  // never return wrong bytes.
  IntegrityLab lab(1);
  auto job = lab.DeptJoinJob();
  ASSERT_TRUE(job.ok());
  lab.cluster.ConfigureDiskFaults(CorruptionOnly(1.0, 5));

  sched::SchedulerOptions sched_options;
  sched_options.execution_slots = 2;
  sched::JobScheduler scheduler(&lab.engine->executor(ExecutionMode::kSmpe),
                                sched_options);
  sched::JobSpec spec;
  spec.tenant = "analytics";
  spec.job_class = sched::JobClass::kAnalyticalScan;
  auto handle = scheduler.Submit(*job, std::move(spec));
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  auto result = (*handle)->Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();
  const std::string message = result.status().ToString();
  EXPECT_NE(message.find("checksum mismatch"), std::string::npos) << message;
  EXPECT_NE(message.find("partition"), std::string::npos) << message;
  EXPECT_NE(message.find("node"), std::string::npos) << message;

  // Lifting the rot clears the path — nothing latched.
  lab.cluster.ConfigureDiskFaults(sim::FaultOptions{});
  auto recovered = lab.engine->ExecuteCollect(*job, ExecutionMode::kSmpe);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->tuples.size(),
            static_cast<size_t>(IntegrityLab::kEmployees));
}

// ------------------------------------------- threaded vs async parity

TEST(Integrity, AsyncEngineMatchesThreadedUnderCorruptionAtFixedSeed) {
  EngineOptions threaded_options;
  threaded_options.smpe.deterministic_seed = 11;

  EngineOptions async_options = threaded_options;
  async_options.smpe.engine = SmpeEngine::kAsync;

  // Fault-free baseline for the answer.
  IntegrityLab clean_lab(2, threaded_options);
  auto clean_job = clean_lab.DeptJoinJob();
  ASSERT_TRUE(clean_job.ok());
  auto clean = clean_lab.engine->ExecuteCollect(*clean_job,
                                                ExecutionMode::kSmpe);
  ASSERT_TRUE(clean.ok());

  IntegrityLab threaded_lab(2, threaded_options);
  IntegrityLab async_lab(2, async_options);
  auto threaded_job = threaded_lab.DeptJoinJob();
  auto async_job = async_lab.DeptJoinJob();
  ASSERT_TRUE(threaded_job.ok());
  ASSERT_TRUE(async_job.ok());

  // One fault seed both engines survive with rot detected (their seeded
  // schedules differ, so a pattern one engine's failover absorbs can rot
  // every replica of a read on the other's op order).
  uint64_t seed = 0;
  CollectedResult threaded, async_result;
  for (uint64_t candidate = 1; candidate <= 64 && seed == 0; ++candidate) {
    threaded_lab.cluster.ConfigureDiskFaults(
        CorruptionOnly(kRotRate, candidate));
    auto t = threaded_lab.engine->ExecuteCollect(*threaded_job,
                                                 ExecutionMode::kSmpe);
    if (!t.ok() || t->metrics.corruptions_detected == 0) continue;
    async_lab.cluster.ConfigureDiskFaults(CorruptionOnly(kRotRate, candidate));
    auto a = async_lab.engine->ExecuteCollect(*async_job,
                                              ExecutionMode::kSmpe);
    if (!a.ok() || a->metrics.corruptions_detected == 0) continue;
    seed = candidate;
    threaded = std::move(*t);
    async_result = std::move(*a);
  }
  ASSERT_NE(seed, 0u) << "no fault seed in [1, 64] survivable on both "
                         "engines with corruption detected";

  // Fixed-seed replay on each engine.
  threaded_lab.cluster.ConfigureDiskFaults(CorruptionOnly(kRotRate, seed));
  auto threaded_replay_or = threaded_lab.engine->ExecuteCollect(
      *threaded_job, ExecutionMode::kSmpe);
  ASSERT_TRUE(threaded_replay_or.ok());
  async_lab.cluster.ConfigureDiskFaults(CorruptionOnly(kRotRate, seed));
  auto async_replay_or = async_lab.engine->ExecuteCollect(
      *async_job, ExecutionMode::kSmpe);
  ASSERT_TRUE(async_replay_or.ok());
  CollectedResult& threaded_replay = *threaded_replay_or;
  CollectedResult& async_replay = *async_replay_or;
  CollectedResult& async = async_result;

  // Both engines checksum-identical to the fault-free answer.
  const auto expected = IntegrityLab::Canonical(clean->tuples);
  EXPECT_EQ(IntegrityLab::Canonical(threaded.tuples), expected);
  EXPECT_EQ(IntegrityLab::Canonical(async.tuples), expected);

  // Both engines detect and repair, nothing unrepairable.
  for (const auto* m : {&threaded.metrics, &async.metrics}) {
    EXPECT_GT(m->corruptions_detected, 0u);
    EXPECT_GT(m->read_repairs, 0u);
    EXPECT_EQ(m->unrepairable, 0u);
  }

  // Each engine replays its own corruption/repair counters bit-for-bit at
  // the fixed seed — the determinism contract is engine-independent.
  EXPECT_EQ(threaded_replay.metrics.corruptions_detected,
            threaded.metrics.corruptions_detected);
  EXPECT_EQ(threaded_replay.metrics.read_repairs,
            threaded.metrics.read_repairs);
  EXPECT_EQ(async_replay.metrics.corruptions_detected,
            async.metrics.corruptions_detected);
  EXPECT_EQ(async_replay.metrics.read_repairs, async.metrics.read_repairs);
}

// ------------------------------------------------- background scrubbing

TEST(Scrubber, FindsAndRepairsColdRotUnderThrottle) {
  IntegrityLab lab(2);
  sched::SchedulerOptions sched_options;
  sched_options.execution_slots = 4;
  sched::JobScheduler scheduler(&lab.engine->executor(ExecutionMode::kSmpe),
                                sched_options);

  io::ScrubOptions options;
  options.max_concurrent_scrubs = 2;
  // Tight enough that verify streams outpace the bucket and must yield,
  // loose enough that the pass still completes in about a second.
  options.throttle_bytes_per_sec = 8 * 1024;
  io::Scrubber scrubber(&lab.cluster, &scheduler, options);
  scrubber.RegisterFile(lab.emp.get());
  scrubber.RegisterFile(lab.dept.get());

  // Concurrent scrub jobs draw from the per-device fault streams in
  // scheduling order, so which streams rot is schedule-dependent (and a
  // repair's source read can itself rot — legitimately unrepairable).
  // Scan seeds for a pattern where rot landed AND every rotten replica
  // had a clean sibling at repair time, whatever order this run's
  // threads interleaved in.
  io::ScrubReport found;
  bool repaired_everything = false;
  for (uint64_t seed = 1; seed <= 64 && !repaired_everything; ++seed) {
    lab.cluster.ConfigureDiskFaults(CorruptionOnly(0.2, seed));
    auto report = scrubber.ScrubAll();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    if (report->corrupt_replicas_found > 0 &&
        report->replicas_repaired == report->corrupt_replicas_found) {
      found = *report;
      repaired_everything = true;
    }
  }
  ASSERT_TRUE(repaired_everything)
      << "no fault seed in [1, 64] produced a fully repairable scrub "
         "pass — detection or repair is broken";
  const io::ScrubReport& report = found;

  // Every partition of every registered file was scrubbed, every replica
  // of each was streamed and verified.
  EXPECT_EQ(report.partitions_scrubbed, 8u + 4u);
  EXPECT_EQ(report.replicas_verified, (8u + 4u) * 2u);
  EXPECT_GT(report.bytes_verified, 0u);
  // Cold rot was found and every rotten replica was rewritten from a
  // clean sibling — nothing unrepairable at rf=2 with all nodes up.
  EXPECT_GT(report.corrupt_replicas_found, 0u);
  EXPECT_EQ(report.replicas_repaired, report.corrupt_replicas_found);
  EXPECT_TRUE(report.unrepairable.empty());
  EXPECT_TRUE(report.under_replicated.empty());
  EXPECT_GT(report.throttle_yields, 0u);
  EXPECT_EQ(report.partition_scrub_us.count, 8u + 4u);
  // The repairs are real replicated writes.
  uint64_t bytes_written = 0;
  for (uint32_t n = 0; n < lab.cluster.num_nodes(); ++n) {
    bytes_written += lab.cluster.node(n).disk().stats().bytes_written.load();
  }
  EXPECT_GT(bytes_written, 0u);

  // With the injector quiet, a second pass verifies everything clean.
  lab.cluster.ConfigureDiskFaults(sim::FaultOptions{});
  auto second = scrubber.ScrubAll();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->corrupt_replicas_found, 0u);
  EXPECT_EQ(second->replicas_repaired, 0u);
  EXPECT_EQ(second->replicas_verified, (8u + 4u) * 2u);
}

TEST(Scrubber, ReportsUnrepairablePartitionsAtRfOne) {
  IntegrityLab lab(1);
  sched::JobScheduler scheduler(&lab.engine->executor(ExecutionMode::kSmpe),
                                sched::SchedulerOptions{});
  io::Scrubber scrubber(&lab.cluster, &scheduler, io::ScrubOptions{});
  scrubber.RegisterFile(lab.emp.get());

  lab.cluster.ConfigureDiskFaults(CorruptionOnly(1.0, 9));
  auto report = scrubber.ScrubAll();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Every stream rots and there is no sibling: all 8 partitions are
  // surfaced as unrepairable, none silently skipped, none "repaired".
  EXPECT_EQ(report->corrupt_replicas_found, 8u);
  EXPECT_EQ(report->replicas_repaired, 0u);
  ASSERT_EQ(report->unrepairable.size(), 8u);
  for (const io::UnrepairablePartition& p : report->unrepairable) {
    EXPECT_EQ(p.file, "emp");
    EXPECT_EQ(p.corrupt_replicas, 1u);
    EXPECT_EQ(p.live_replicas, 1u);
  }
}

TEST(Scrubber, ReportsPartitionsBelowTheRequestedReplicationFactor) {
  // rf=3 on a 2-node cluster: PlacementMap clamps to 2 and flags it. The
  // scrub pass surfaces every partition as under-replicated even though
  // each surviving copy verifies clean.
  IntegrityLab clamped_lab(3, EngineOptions{},
                           sim::ClusterOptions::ForNodes(2));
  {
    sched::JobScheduler scheduler(
        &clamped_lab.engine->executor(ExecutionMode::kSmpe),
        sched::SchedulerOptions{});
    io::Scrubber scrubber(&clamped_lab.cluster, &scheduler,
                          io::ScrubOptions{});
    scrubber.RegisterFile(clamped_lab.dept.get());
    auto report = scrubber.ScrubAll();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->corrupt_replicas_found, 0u);
    ASSERT_EQ(report->under_replicated.size(), 4u);
    for (const io::UnderReplicatedPartition& p : report->under_replicated) {
      EXPECT_EQ(p.file, "dept");
      EXPECT_EQ(p.requested_rf, 3u);
      EXPECT_EQ(p.live_replicas, 2u);
      EXPECT_TRUE(p.rf_clamped);
    }
  }

  // A node outage degrades live replicas the same way, without the clamp
  // flag: the report distinguishes "cluster too small" from "node down".
  IntegrityLab outage_lab(2);
  sched::JobScheduler scheduler(
      &outage_lab.engine->executor(ExecutionMode::kSmpe),
      sched::SchedulerOptions{});
  io::Scrubber scrubber(&outage_lab.cluster, &scheduler, io::ScrubOptions{});
  scrubber.RegisterFile(outage_lab.dept.get());
  outage_lab.cluster.SetNodeOutage(1, true);
  auto report = scrubber.ScrubAll();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->under_replicated.empty());
  for (const io::UnderReplicatedPartition& p : report->under_replicated) {
    EXPECT_EQ(p.requested_rf, 2u);
    EXPECT_EQ(p.live_replicas, 1u);
    EXPECT_FALSE(p.rf_clamped);
  }
  outage_lab.cluster.SetNodeOutage(1, false);
}

TEST(Scrubber, PassIsIdenticalOnEveryExecutor) {
  // Untimed, rf=2, every read of one node rotten and every other fault
  // off: each verdict is fixed whatever the order the streams run in. So
  // the capped and uncapped engines, the partitioned executor (which runs
  // each scrub body in place) and deterministic replay must report the
  // same pass and charge the same device work for it.
  constexpr sim::NodeId kRotten = 1;
  struct Executor {
    const char* name;
    SmpeEngine engine;
    ExecutionMode mode;
    uint64_t deterministic_seed;
  };
  std::map<std::string, uint64_t> first_report;
  std::map<std::string, uint64_t> first_charges;
  for (const Executor& executor :
       {Executor{"capped", SmpeEngine::kThreaded, ExecutionMode::kSmpe, 0},
        Executor{"uncapped", SmpeEngine::kAsync, ExecutionMode::kSmpe, 0},
        Executor{"partitioned", SmpeEngine::kThreaded,
                 ExecutionMode::kPartitioned, 0},
        Executor{"replay", SmpeEngine::kThreaded, ExecutionMode::kSmpe, 5}}) {
    SCOPED_TRACE(executor.name);
    EngineOptions options;
    options.smpe.engine = executor.engine;
    options.smpe.deterministic_seed = executor.deterministic_seed;
    IntegrityLab lab(2, options);
    sched::JobScheduler scheduler(&lab.engine->executor(executor.mode),
                                  sched::SchedulerOptions{});
    io::Scrubber scrubber(&lab.cluster, &scheduler, io::ScrubOptions{});
    scrubber.RegisterFile(lab.emp.get());
    scrubber.RegisterFile(lab.dept.get());
    lab.cluster.node(kRotten).disk().ConfigureFaults(CorruptionOnly(1.0, 3));
    const sim::ResourceTotals before = lab.cluster.TotalStats();
    auto report = scrubber.ScrubAll();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const std::map<std::string, uint64_t> charges =
        ChargedSince(before, lab.cluster.TotalStats());
    EXPECT_GT(report->corrupt_replicas_found, 0u);
    EXPECT_EQ(report->replicas_repaired, report->corrupt_replicas_found);
    const std::map<std::string, uint64_t> summary = {
        {"partitions_scrubbed", report->partitions_scrubbed},
        {"replicas_verified", report->replicas_verified},
        {"bytes_verified", report->bytes_verified},
        {"corrupt_replicas_found", report->corrupt_replicas_found},
        {"replicas_repaired", report->replicas_repaired},
        {"stream_retries", report->stream_retries},
        {"job_resubmissions", report->job_resubmissions},
        {"throttle_yields", report->throttle_yields},
        {"partitions_skipped_unmerged", report->partitions_skipped_unmerged},
        {"under_replicated", report->under_replicated.size()},
        {"unrepairable", report->unrepairable.size()}};
    if (first_report.empty()) {
      first_report = summary;
      first_charges = charges;
      continue;
    }
    EXPECT_EQ(summary, first_report);
    EXPECT_EQ(charges, first_charges);
  }
}

}  // namespace
}  // namespace lakeharbor::rede
