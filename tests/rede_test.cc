#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "common/string_util.h"
#include "index/index_entry.h"
#include "io/key_codec.h"
#include "rede/builtin_derefs.h"
#include "rede/builtin_refs.h"
#include "rede/engine.h"
#include "rede/functions.h"

namespace lakeharbor::rede {
namespace {

// --------------------------------------------------------------- functions

TEST(Functions, DelimitedFieldInterpreter) {
  auto interp = DelimitedFieldInterpreter(1);
  io::Record record(std::string("a|bb|c"));
  auto got = interp(record);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "bb");
  EXPECT_FALSE(DelimitedFieldInterpreter(9)(record).ok());
}

TEST(Functions, EncodedInt64FieldInterpreter) {
  auto interp = EncodedInt64FieldInterpreter(0);
  auto got = interp(io::Record(std::string("42|x")));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, io::EncodeInt64Key(42));
  EXPECT_FALSE(interp(io::Record(std::string("nope|x"))).ok());
}

TEST(Functions, BundleEqualityFilter) {
  Tuple tuple;
  tuple.records.emplace_back(std::string("1|7"));
  tuple.records.emplace_back(std::string("2|7"));
  auto same = BundleEqualityFilter(0, DelimitedFieldInterpreter(1), 1,
                                   DelimitedFieldInterpreter(1));
  EXPECT_TRUE(*same(tuple));
  auto diff = BundleEqualityFilter(0, DelimitedFieldInterpreter(0), 1,
                                   DelimitedFieldInterpreter(0));
  EXPECT_FALSE(*diff(tuple));
  auto oob = BundleEqualityFilter(0, DelimitedFieldInterpreter(0), 5,
                                  DelimitedFieldInterpreter(0));
  EXPECT_FALSE(oob(tuple).ok());
}

TEST(Functions, RangeAndEqualsFilters) {
  Tuple tuple;
  tuple.records.emplace_back(std::string("m|x"));
  EXPECT_TRUE(
      *LastRecordRangeFilter(DelimitedFieldInterpreter(0), "a", "z")(tuple));
  EXPECT_FALSE(
      *LastRecordRangeFilter(DelimitedFieldInterpreter(0), "n", "z")(tuple));
  EXPECT_TRUE(
      *LastRecordEqualsFilter(DelimitedFieldInterpreter(0), "m")(tuple));
  EXPECT_FALSE(
      *LastRecordEqualsFilter(DelimitedFieldInterpreter(0), "q")(tuple));
}

TEST(Tuple, Factories) {
  Tuple point = Tuple::Point(io::Pointer::Keyed("k"));
  EXPECT_FALSE(point.is_range);
  EXPECT_FALSE(point.resolve_local);
  EXPECT_TRUE(point.records.empty());
  Tuple range = Tuple::Range(io::Pointer::Broadcast("a"),
                             io::Pointer::Broadcast("z"));
  EXPECT_TRUE(range.is_range);
  EXPECT_EQ(range.pointer.key, "a");
  EXPECT_EQ(range.pointer_hi.key, "z");
  range.records.emplace_back(std::string("r1"));
  range.records.emplace_back(std::string("r2"));
  EXPECT_EQ(range.last_record().bytes(), "r2");
}

TEST(Functions, AcceptAllFilter) {
  Tuple tuple;
  EXPECT_TRUE(*AcceptAllFilter()(tuple));
}

// ------------------------------------------------------------- referencers

Tuple OneRecordTuple(const std::string& bytes) {
  Tuple t;
  t.records.emplace_back(std::string(bytes));
  return t;
}

TEST(Referencers, KeyReferencerEmitsKeyedPointer) {
  auto ref = MakeKeyReferencer("r", EncodedInt64FieldInterpreter(1));
  std::vector<Tuple> out;
  ExecContext ctx;
  ASSERT_TRUE(ref->Execute(ctx, OneRecordTuple("9|77"), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].pointer.has_partition);
  EXPECT_EQ(out[0].pointer.key, io::EncodeInt64Key(77));
  EXPECT_EQ(out[0].pointer.partition_key, io::EncodeInt64Key(77));
  EXPECT_EQ(out[0].records.size(), 1u);  // bundle carried along
  EXPECT_FALSE(ref->IsDereferencer());
}

TEST(Referencers, KeyReferencerReadsChosenBundleIndex) {
  auto ref = MakeKeyReferencer("r", EncodedInt64FieldInterpreter(0), 0);
  Tuple tuple = OneRecordTuple("5|x");
  tuple.records.emplace_back(std::string("6|y"));
  std::vector<Tuple> out;
  ExecContext ctx;
  ASSERT_TRUE(ref->Execute(ctx, tuple, &out).ok());
  EXPECT_EQ(out[0].pointer.key, io::EncodeInt64Key(5));
}

TEST(Referencers, EmptyBundleIsError) {
  auto ref = MakeKeyReferencer("r", EncodedInt64FieldInterpreter(0));
  std::vector<Tuple> out;
  ExecContext ctx;
  EXPECT_TRUE(ref->Execute(ctx, Tuple{}, &out).IsInvalidArgument());
}

TEST(Referencers, BroadcastReferencerLeavesPartitionNull) {
  auto ref = MakeBroadcastReferencer("r", EncodedInt64FieldInterpreter(0));
  std::vector<Tuple> out;
  ExecContext ctx;
  ASSERT_TRUE(ref->Execute(ctx, OneRecordTuple("5|x"), &out).ok());
  EXPECT_FALSE(out[0].pointer.has_partition);
  EXPECT_EQ(out[0].pointer.key, io::EncodeInt64Key(5));
}

TEST(Referencers, IndexEntryReferencerDropsCarrierRecord) {
  auto ref = MakeIndexEntryReferencer("r");
  Tuple tuple = OneRecordTuple("base|row");
  tuple.records.push_back(index::MakeIndexEntry("pk", "key"));
  std::vector<Tuple> out;
  ExecContext ctx;
  ASSERT_TRUE(ref->Execute(ctx, tuple, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].records.size(), 1u);  // entry removed
  EXPECT_EQ(out[0].pointer.partition_key, "pk");
  EXPECT_EQ(out[0].pointer.key, "key");
}

TEST(Referencers, RangeReferencerEmitsRange) {
  auto ref = MakeRangeReferencer("r", DelimitedFieldInterpreter(0),
                                 DelimitedFieldInterpreter(1));
  std::vector<Tuple> out;
  ExecContext ctx;
  ASSERT_TRUE(ref->Execute(ctx, OneRecordTuple("aa|zz"), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].is_range);
  EXPECT_EQ(out[0].pointer.key, "aa");
  EXPECT_EQ(out[0].pointer_hi.key, "zz");
  EXPECT_FALSE(out[0].pointer.has_partition);
}

// ------------------------------------------------- engine + executors

/// Fixture: employees (id|name|dept) and departments (id|dname), plus a
/// global structure over emp.dept built through the engine.
struct EngineFixture : ::testing::Test {
  static constexpr int kEmployees = 120;
  static constexpr int kDepts = 10;

  EngineFixture()
      : cluster(sim::ClusterOptions::ForNodes(4)), engine(&cluster) {
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
    LH_CHECK(engine.catalog().Register(emp).ok());

    auto dept = std::make_shared<io::PartitionedFile>(
        "dept", std::make_shared<io::HashPartitioner>(4), &cluster);
    for (int d = 0; d < kDepts; ++d) {
      std::string key = io::EncodeInt64Key(d);
      LH_CHECK(dept->Append(key, key,
                            io::Record(StrFormat("%d|dept%d", d, d)))
                   .ok());
    }
    dept->Seal();
    LH_CHECK(engine.catalog().Register(dept).ok());

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
    LH_CHECK(engine.BuildStructure(spec, "dept").ok());
  }

  /// dept range join: employees of depts [lo, hi] joined with dept rows.
  StatusOr<Job> DeptJoinJob(int lo, int hi, bool broadcast_dept = false) {
    LH_ASSIGN_OR_RETURN(auto emp, engine.catalog().Get("emp"));
    LH_ASSIGN_OR_RETURN(auto dept, engine.catalog().Get("dept"));
    LH_ASSIGN_OR_RETURN(auto idx_file, engine.catalog().Get("emp.dept.idx"));
    auto idx = std::dynamic_pointer_cast<io::BtreeFile>(idx_file);
    LH_CHECK(idx != nullptr);
    StageFunctionPtr dept_ref =
        broadcast_dept
            ? MakeBroadcastReferencer("ref-dept",
                                      EncodedInt64FieldInterpreter(2))
            : MakeKeyReferencer("ref-dept", EncodedInt64FieldInterpreter(2));
    return JobBuilder("dept-join")
        .Initial(Tuple::Range(io::Pointer::Broadcast(io::EncodeInt64Key(lo)),
                              io::Pointer::Broadcast(io::EncodeInt64Key(hi))))
        .Add(MakeRangeDereferencer("deref-idx", idx))
        .Add(MakeIndexEntryReferencer("ref-entry"))
        .Add(MakePointDereferencer("deref-emp", emp))
        .Add(dept_ref)
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

  sim::Cluster cluster;
  Engine engine;
};

TEST_F(EngineFixture, JobBuilderValidation) {
  EXPECT_TRUE(JobBuilder("empty").Build().status().IsInvalidArgument());
  EXPECT_TRUE(JobBuilder("null").Add(nullptr).Build().status()
                  .IsInvalidArgument());
  EXPECT_TRUE(JobBuilder("ref-first")
                  .Add(MakeKeyReferencer("r", DelimitedFieldInterpreter(0)))
                  .Build()
                  .status()
                  .IsInvalidArgument());
}

TEST_F(EngineFixture, SmpeExecutesIndexJoin) {
  auto job = DeptJoinJob(3, 5);
  ASSERT_TRUE(job.ok());
  auto result = engine.ExecuteCollect(*job, ExecutionMode::kSmpe);
  ASSERT_TRUE(result.ok());
  // depts 3..5 -> kEmployees/kDepts employees each.
  EXPECT_EQ(result->tuples.size(), 3u * kEmployees / kDepts);
  for (const auto& tuple : result->tuples) {
    ASSERT_EQ(tuple.records.size(), 2u);
    std::string emp_dept(FieldAt(tuple.records[0].slice().view(), '|', 2));
    std::string dept_id(FieldAt(tuple.records[1].slice().view(), '|', 0));
    EXPECT_EQ(emp_dept, dept_id);
  }
  EXPECT_EQ(result->metrics.output_tuples, result->tuples.size());
  EXPECT_GT(result->metrics.deref_invocations, 0u);
  EXPECT_GT(result->metrics.ref_invocations, 0u);
}

TEST_F(EngineFixture, PartitionedMatchesSmpe) {
  auto job = DeptJoinJob(0, 9);
  ASSERT_TRUE(job.ok());
  auto smpe = engine.ExecuteCollect(*job, ExecutionMode::kSmpe);
  auto part = engine.ExecuteCollect(*job, ExecutionMode::kPartitioned);
  ASSERT_TRUE(smpe.ok());
  ASSERT_TRUE(part.ok());
  EXPECT_EQ(smpe->tuples.size(), static_cast<size_t>(kEmployees));
  EXPECT_EQ(Canonical(smpe->tuples), Canonical(part->tuples));
}

TEST_F(EngineFixture, BroadcastJoinMatchesKeyedJoin) {
  auto keyed = DeptJoinJob(2, 4, /*broadcast_dept=*/false);
  auto bcast = DeptJoinJob(2, 4, /*broadcast_dept=*/true);
  ASSERT_TRUE(keyed.ok());
  ASSERT_TRUE(bcast.ok());
  auto keyed_result = engine.ExecuteCollect(*keyed, ExecutionMode::kSmpe);
  auto bcast_result = engine.ExecuteCollect(*bcast, ExecutionMode::kSmpe);
  ASSERT_TRUE(keyed_result.ok());
  ASSERT_TRUE(bcast_result.ok());
  EXPECT_EQ(Canonical(keyed_result->tuples), Canonical(bcast_result->tuples));
  EXPECT_GT(bcast_result->metrics.broadcasts, 0u);
  EXPECT_EQ(keyed_result->metrics.broadcasts, 0u);
}

TEST_F(EngineFixture, BroadcastJoinMatchesInPartitionedModeToo) {
  auto bcast = DeptJoinJob(2, 4, /*broadcast_dept=*/true);
  ASSERT_TRUE(bcast.ok());
  auto smpe = engine.ExecuteCollect(*bcast, ExecutionMode::kSmpe);
  auto part = engine.ExecuteCollect(*bcast, ExecutionMode::kPartitioned);
  ASSERT_TRUE(smpe.ok());
  ASSERT_TRUE(part.ok());
  EXPECT_EQ(Canonical(smpe->tuples), Canonical(part->tuples));
}

TEST_F(EngineFixture, KeyedInitialPointerRunsSingleLookup) {
  LH_CHECK(engine.catalog().Get("emp").ok());
  auto emp = *engine.catalog().Get("emp");
  auto job = JobBuilder("point-get")
                 .Initial(Tuple::Point(io::Pointer::Keyed(
                     io::EncodeInt64Key(17))))
                 .Add(MakePointDereferencer("deref", emp))
                 .Build();
  ASSERT_TRUE(job.ok());
  auto result = engine.ExecuteCollect(*job, ExecutionMode::kSmpe);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->tuples.size(), 1u);
  EXPECT_EQ(FieldAt(result->tuples[0].records[0].slice().view(), '|', 0),
            "17");
}

TEST_F(EngineFixture, EmptyRangeYieldsNoTuplesNoError) {
  auto job = DeptJoinJob(50, 60);  // no such depts
  ASSERT_TRUE(job.ok());
  for (auto mode : {ExecutionMode::kSmpe, ExecutionMode::kPartitioned}) {
    auto result = engine.ExecuteCollect(*job, mode);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->tuples.empty());
  }
}

TEST_F(EngineFixture, FilterDropsTuples) {
  auto emp = *engine.catalog().Get("emp");
  auto idx = std::dynamic_pointer_cast<io::BtreeFile>(
      *engine.catalog().Get("emp.dept.idx"));
  // Keep only even employee ids.
  Filter even = [](const Tuple& tuple) -> StatusOr<bool> {
    LH_ASSIGN_OR_RETURN(
        int64_t id,
        ParseInt64(FieldAt(tuple.last_record().slice().view(), '|', 0)));
    return id % 2 == 0;
  };
  auto job = JobBuilder("filtered")
                 .Initial(Tuple::Range(
                     io::Pointer::Broadcast(io::EncodeInt64Key(0)),
                     io::Pointer::Broadcast(io::EncodeInt64Key(9))))
                 .Add(MakeRangeDereferencer("deref-idx", idx))
                 .Add(MakeIndexEntryReferencer("ref-entry"))
                 .Add(MakePointDereferencer("deref-emp", emp, even))
                 .Build();
  ASSERT_TRUE(job.ok());
  auto result = engine.ExecuteCollect(*job, ExecutionMode::kSmpe);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), static_cast<size_t>(kEmployees) / 2);
}

TEST_F(EngineFixture, DiskFaultSurfacesAsIOError) {
  auto job = DeptJoinJob(0, 9);
  ASSERT_TRUE(job.ok());
  for (auto mode : {ExecutionMode::kSmpe, ExecutionMode::kPartitioned}) {
    for (uint32_t n = 0; n < cluster.num_nodes(); ++n) {
      cluster.node(n).disk().InjectFaultAfter(5);
    }
    auto result = engine.ExecuteCollect(*job, mode);
    EXPECT_FALSE(result.ok()) << ExecutionModeToString(mode);
    EXPECT_TRUE(result.status().IsIOError());
    for (uint32_t n = 0; n < cluster.num_nodes(); ++n) {
      cluster.node(n).disk().ClearFault();
    }
    // Engine remains usable after a failed job.
    auto retry = engine.ExecuteCollect(*job, mode);
    ASSERT_TRUE(retry.ok());
    EXPECT_EQ(retry->tuples.size(), static_cast<size_t>(kEmployees));
  }
}

TEST_F(EngineFixture, ReferencerErrorSurfaces) {
  auto emp = *engine.catalog().Get("emp");
  auto idx = std::dynamic_pointer_cast<io::BtreeFile>(
      *engine.catalog().Get("emp.dept.idx"));
  // Interpreter that cannot parse the employee rows (wrong field).
  auto bad_ref = MakeKeyReferencer("bad", EncodedInt64FieldInterpreter(1));
  auto dept = *engine.catalog().Get("dept");
  auto job = JobBuilder("bad-ref")
                 .Initial(Tuple::Range(
                     io::Pointer::Broadcast(io::EncodeInt64Key(0)),
                     io::Pointer::Broadcast(io::EncodeInt64Key(9))))
                 .Add(MakeRangeDereferencer("deref-idx", idx))
                 .Add(MakeIndexEntryReferencer("ref-entry"))
                 .Add(MakePointDereferencer("deref-emp", emp))
                 .Add(bad_ref)
                 .Add(MakePointDereferencer("deref-dept", dept))
                 .Build();
  ASSERT_TRUE(job.ok());
  for (auto mode : {ExecutionMode::kSmpe, ExecutionMode::kPartitioned}) {
    auto result = engine.ExecuteCollect(*job, mode);
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsInvalidArgument());
  }
}

TEST_F(EngineFixture, InlineReferencerAblationGivesSameResults) {
  auto job = DeptJoinJob(0, 9);
  ASSERT_TRUE(job.ok());
  SmpeOptions inline_off;
  inline_off.inline_referencers = false;
  inline_off.threads_per_node = 16;
  SmpeExecutor executor(&cluster, inline_off);
  TupleCollector collector;
  auto result = executor.Execute(*job, collector.AsSink());
  ASSERT_TRUE(result.ok());
  auto tuples = collector.TakeTuples();
  EXPECT_EQ(tuples.size(), static_cast<size_t>(kEmployees));
  // With inlining off, referencer invocations become queued tasks; counts
  // still match the inline run.
  EXPECT_GT(result->metrics.ref_invocations, 0u);
}

TEST_F(EngineFixture, PerStageMetricsBalance) {
  auto job = DeptJoinJob(0, 9);
  ASSERT_TRUE(job.ok());
  for (auto mode :
       {ExecutionMode::kSmpe, ExecutionMode::kPartitioned}) {
    auto result = engine.Execute(*job, mode);
    ASSERT_TRUE(result.ok());
    const auto& stages = result->metrics.per_stage;
    ASSERT_EQ(stages.size(), job->num_stages());
    // Stage 0 (index range deref) runs once per node under SMPE (broadcast
    // seeding) and emits every index entry.
    EXPECT_EQ(stages[0].emitted, static_cast<uint64_t>(kEmployees));
    // Each later stage consumes exactly what its predecessor emitted.
    for (size_t i = 1; i < stages.size(); ++i) {
      EXPECT_EQ(stages[i].invocations, stages[i - 1].emitted)
          << "stage " << i << " mode " << ExecutionModeToString(mode);
    }
    // Final stage's emissions are the job output.
    EXPECT_EQ(stages.back().emitted, result->metrics.output_tuples);
  }
}

TEST_F(EngineFixture, DescribeListsStagesAndAnnotatesMetrics) {
  auto job = DeptJoinJob(0, 9);
  ASSERT_TRUE(job.ok());
  std::string plain = job->Describe();
  EXPECT_NE(plain.find("job 'dept-join'"), std::string::npos);
  EXPECT_NE(plain.find("stage 0: Dereferencer  deref-idx"), std::string::npos);
  EXPECT_NE(plain.find("Referencer"), std::string::npos);
  EXPECT_NE(plain.find("broadcast, resolved locally"), std::string::npos);
  EXPECT_EQ(plain.find("invoked"), std::string::npos);

  auto result = engine.Execute(*job, ExecutionMode::kSmpe);
  ASSERT_TRUE(result.ok());
  std::string annotated = job->Describe(&result->metrics);
  EXPECT_NE(annotated.find("invoked"), std::string::npos);
  EXPECT_NE(annotated.find("emitted"), std::string::npos);
}

TEST_F(EngineFixture, SmpeReportsFineGrainedParallelism) {
  sim::ClusterOptions timed;
  timed.num_nodes = 4;
  timed.EnableTiming(true);
  timed.disk.random_read_latency_us = 1000;
  timed.disk.io_slots = 64;
  sim::Cluster slow_cluster(timed);
  Engine slow_engine(&slow_cluster);
  // Rebuild the same dataset on the timed cluster.
  auto emp = std::make_shared<io::PartitionedFile>(
      "emp", std::make_shared<io::HashPartitioner>(8), &slow_cluster);
  for (int i = 0; i < kEmployees; ++i) {
    std::string key = io::EncodeInt64Key(i);
    ASSERT_TRUE(emp->Append(key, key,
                            io::Record(StrFormat("%d|emp%d|%d", i, i,
                                                 i % kDepts)))
                    .ok());
  }
  emp->Seal();
  ASSERT_TRUE(slow_engine.catalog().Register(emp).ok());
  auto idx = std::make_shared<io::BtreeFile>(
      "emp.id.idx", std::make_shared<io::HashPartitioner>(8), &slow_cluster);
  for (int i = 0; i < kEmployees; ++i) {
    std::string key = io::EncodeInt64Key(i);
    ASSERT_TRUE(idx->AppendToPartition(
                       static_cast<uint32_t>(i % 8), key,
                       index::MakeIndexEntry(key, key))
                    .ok());
  }
  idx->Seal();
  ASSERT_TRUE(slow_engine.catalog().Register(idx).ok());
  auto job = JobBuilder("parallel-fetch")
                 .Initial(Tuple::Range(
                     io::Pointer::Broadcast(io::EncodeInt64Key(0)),
                     io::Pointer::Broadcast(io::EncodeInt64Key(kEmployees))))
                 .Add(MakeRangeDereferencer("deref-idx", idx))
                 .Add(MakeIndexEntryReferencer("ref-entry"))
                 .Add(MakePointDereferencer("deref-emp", emp))
                 .Build();
  ASSERT_TRUE(job.ok());
  auto result = slow_engine.Execute(*job, ExecutionMode::kSmpe);
  ASSERT_TRUE(result.ok());
  // 120 fetches of 1 ms each; fine-grained decomposition must overlap many.
  EXPECT_GT(result->metrics.peak_parallel_derefs, 8);
}

}  // namespace
}  // namespace lakeharbor::rede
