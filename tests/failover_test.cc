#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/clock.h"
#include "common/string_util.h"
#include "io/key_codec.h"
#include "io/placement.h"
#include "rede/builtin_derefs.h"
#include "rede/builtin_refs.h"
#include "rede/engine.h"
#include "rede/smpe_executor.h"
#include "sim/cluster.h"
#include "process_threads.h"

namespace lakeharbor::rede {
namespace {

// ------------------------------------------------------- replica placement

TEST(PlacementMap, PrimaryReproducesTheUnreplicatedLayout) {
  io::PlacementMap map(4, 3);
  EXPECT_EQ(map.num_nodes(), 4u);
  EXPECT_EQ(map.replication_factor(), 3u);
  for (uint32_t p = 0; p < 16; ++p) {
    EXPECT_EQ(map.PrimaryNode(p), p % 4) << p;
    EXPECT_EQ(map.ReplicaNode(p, 0), map.PrimaryNode(p)) << p;
  }
}

TEST(PlacementMap, ReplicasOfOnePartitionLandOnDistinctNodes) {
  io::PlacementMap map(5, 4);
  for (uint32_t p = 0; p < 20; ++p) {
    std::vector<sim::NodeId> nodes = map.ReplicaNodes(p);
    ASSERT_EQ(nodes.size(), 4u);
    std::set<sim::NodeId> distinct(nodes.begin(), nodes.end());
    EXPECT_EQ(distinct.size(), nodes.size()) << "partition " << p;
    EXPECT_EQ(nodes.front(), map.PrimaryNode(p));
  }
}

TEST(PlacementMap, ReplicationFactorIsClampedToTheNodeCount) {
  EXPECT_EQ(io::PlacementMap(3, 0).replication_factor(), 1u);
  EXPECT_EQ(io::PlacementMap(3, 3).replication_factor(), 3u);
  EXPECT_EQ(io::PlacementMap(3, 17).replication_factor(), 3u);
  EXPECT_EQ(io::PlacementMap().replication_factor(), 1u);
}

TEST(PlacementMap, ReplicaOnNodeInvertsReplicaNode) {
  io::PlacementMap map(4, 2);
  for (uint32_t p = 0; p < 12; ++p) {
    for (uint32_t r = 0; r < 2; ++r) {
      auto back = map.ReplicaOnNode(p, map.ReplicaNode(p, r));
      ASSERT_TRUE(back.has_value()) << "p=" << p << " r=" << r;
      EXPECT_EQ(*back, r);
    }
    // The two nodes after the replicas hold no copy of p.
    EXPECT_FALSE(map.ReplicaOnNode(p, (p + 2) % 4).has_value());
    EXPECT_FALSE(map.ReplicaOnNode(p, (p + 3) % 4).has_value());
  }
}

TEST(PlacementMap, FirstLiveReplicaSkipsDownNodes) {
  sim::Cluster cluster(sim::ClusterOptions::ForNodes(4));
  io::PlacementMap map(4, 2);
  // Partition 1: replicas on nodes 1 and 2.
  EXPECT_EQ(map.FirstLiveReplica(cluster, 1).value(), 0u);
  cluster.SetNodeOutage(1, true);
  EXPECT_EQ(map.FirstLiveReplica(cluster, 1).value(), 1u);
  cluster.SetNodeOutage(2, true);
  EXPECT_FALSE(map.FirstLiveReplica(cluster, 1).has_value());
  cluster.SetNodeOutage(1, false);
  EXPECT_EQ(map.FirstLiveReplica(cluster, 1).value(), 0u);
  cluster.SetNodeOutage(2, false);
}

TEST(ReplicatedFile, ReplicaBoundsAreCheckedAndWritesChargeEveryReplica) {
  sim::Cluster cluster(sim::ClusterOptions::ForNodes(4));
  auto file = std::make_shared<io::PartitionedFile>(
      "rf", std::make_shared<io::HashPartitioner>(8), &cluster);
  file->SetReplicationFactor(2);
  EXPECT_EQ(file->replication_factor(), 2u);
  std::string key = io::EncodeInt64Key(7);
  LH_CHECK(file->Append(key, key, io::Record(std::string("x"))).ok());
  file->Seal();

  std::vector<io::Record> out;
  uint32_t partition = file->partitioner().PartitionOf(key);
  EXPECT_TRUE(file->GetInPartitionOnReplica(0, partition, 0, key, &out).ok());
  EXPECT_TRUE(file->GetInPartitionOnReplica(0, partition, 1, key, &out).ok());
  Status bad = file->GetInPartitionOnReplica(0, partition, 2, key, &out);
  EXPECT_TRUE(bad.IsOutOfRange()) << bad.ToString();
  EXPECT_NE(bad.message().find("replica"), std::string::npos);

  // Replicated flushes (what IndexBuilder issues when materializing a
  // structure) charge the write to every replica holder of the partition.
  sim::NodeId primary = file->NodeOfPartition(partition);
  sim::NodeId secondary = file->NodeOfReplica(partition, 1);
  EXPECT_NE(primary, secondary);
  ASSERT_TRUE(cluster
                  .ChargeReplicatedWrite(primary,
                                         file->placement().ReplicaNodes(
                                             partition),
                                         64)
                  .ok());
  EXPECT_GT(cluster.node(primary).disk().stats().bytes_written.load(), 0u);
  EXPECT_GT(cluster.node(secondary).disk().stats().bytes_written.load(), 0u);
}

// --------------------------------------------------------- engine fixtures

/// The fault_test employee/department dataset with a configurable
/// replication factor: 120 employees over 8 partitions, 10 departments over
/// 4, and a global B-tree over emp's dept field (which inherits emp's
/// replication).
struct ReplicatedLab {
  static constexpr int kEmployees = 120;
  static constexpr int kDepts = 10;

  explicit ReplicatedLab(
      uint32_t rf, EngineOptions options = {},
      sim::ClusterOptions cluster_options = sim::ClusterOptions::ForNodes(4))
      : cluster(cluster_options) {
    engine = std::make_unique<Engine>(&cluster, options);
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

  /// The dept join with an optional mid-pipeline stage inserted between the
  /// index-entry referencer and the emp dereference.
  StatusOr<Job> DeptJoinJob(StageFunctionPtr mid = nullptr) {
    LH_ASSIGN_OR_RETURN(auto emp, engine->catalog().Get("emp"));
    LH_ASSIGN_OR_RETURN(auto dept, engine->catalog().Get("dept"));
    LH_ASSIGN_OR_RETURN(auto idx_file, engine->catalog().Get("emp.dept.idx"));
    auto idx = std::dynamic_pointer_cast<io::BtreeFile>(idx_file);
    LH_CHECK(idx != nullptr);
    JobBuilder builder("dept-join");
    builder
        .Initial(Tuple::Range(io::Pointer::Broadcast(io::EncodeInt64Key(0)),
                              io::Pointer::Broadcast(
                                  io::EncodeInt64Key(kDepts - 1))))
        .Add(MakeRangeDereferencer("deref-idx", idx))
        .Add(MakeIndexEntryReferencer("ref-entry"));
    if (mid != nullptr) builder.Add(std::move(mid));
    builder.Add(MakePointDereferencer("deref-emp", emp))
        .Add(MakeKeyReferencer("ref-dept", EncodedInt64FieldInterpreter(2)))
        .Add(MakePointDereferencer("deref-dept", dept));
    return builder.Build();
  }

  std::shared_ptr<io::BtreeFile> Index() {
    auto idx_file = engine->catalog().Get("emp.dept.idx");
    LH_CHECK(idx_file.ok());
    auto idx = std::dynamic_pointer_cast<io::BtreeFile>(*idx_file);
    LH_CHECK(idx != nullptr);
    return idx;
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
};

/// Pass-through Referencer that takes one node down the first time any
/// invocation runs — an outage striking at a deterministic point mid-query
/// (between the index scan and the base-file dereferences). With a null
/// `fired` flag it is inert, so the clean run executes the exact same plan.
class OutageTrigger final : public Referencer {
 public:
  OutageTrigger(std::string name, sim::Cluster* cluster, sim::NodeId target,
                std::shared_ptr<std::atomic<bool>> fired)
      : Referencer(std::move(name)),
        cluster_(cluster),
        target_(target),
        fired_(std::move(fired)) {}

  Status Execute(const ExecContext&, const Tuple& input,
                 std::vector<Tuple>* out) const override {
    if (fired_ != nullptr && !fired_->exchange(true)) {
      cluster_->SetNodeOutage(target_, true);
    }
    out->push_back(input);
    return Status::OK();
  }

 private:
  sim::Cluster* cluster_;
  sim::NodeId target_;
  std::shared_ptr<std::atomic<bool>> fired_;
};

// ------------------------------------------------- replication-off parity

TEST(Failover, RfOneKeepsSeedBehaviorBitForBitUnderDeterministicSeed) {
  EngineOptions options;
  options.smpe.deterministic_seed = 42;
  ReplicatedLab lab(1, options);
  auto job = lab.DeptJoinJob();
  ASSERT_TRUE(job.ok());

  auto first = lab.engine->ExecuteCollect(*job, ExecutionMode::kSmpe);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->tuples.size(), static_cast<size_t>(ReplicatedLab::kEmployees));
  // Unreplicated runs never touch any of the new machinery.
  EXPECT_EQ(first->metrics.failovers, 0u);
  EXPECT_EQ(first->metrics.replica_reads, 0u);
  EXPECT_EQ(first->metrics.hedged_reads, 0u);
  EXPECT_EQ(first->metrics.broadcast_redirects, 0u);

  // Same seed, same engine: the replay is identical down to tuple ORDER,
  // not merely as a multiset — replication_factor=1 is the seed layout.
  auto replay = lab.engine->ExecuteCollect(*job, ExecutionMode::kSmpe);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->tuples.size(), first->tuples.size());
  for (size_t i = 0; i < first->tuples.size(); ++i) {
    ASSERT_EQ(first->tuples[i].records.size(), replay->tuples[i].records.size());
    for (size_t r = 0; r < first->tuples[i].records.size(); ++r) {
      EXPECT_EQ(first->tuples[i].records[r].bytes(),
                replay->tuples[i].records[r].bytes());
    }
  }
}

TEST(Failover, RfOneOutageStillFailsTheJobCleanly) {
  ReplicatedLab lab(1);
  auto job = lab.DeptJoinJob();
  ASSERT_TRUE(job.ok());
  lab.cluster.SetNodeOutage(2, true);
  auto result = lab.engine->ExecuteCollect(*job, ExecutionMode::kSmpe);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable()) << result.status().ToString();
  lab.cluster.SetNodeOutage(2, false);
  auto recovered = lab.engine->ExecuteCollect(*job, ExecutionMode::kSmpe);
  ASSERT_TRUE(recovered.ok());
}

// ----------------------------------------------------- surviving outages

TEST(Failover, RfTwoCompletesWithWholeNodeDownBeforeTheQuery) {
  ReplicatedLab clean_lab(2);
  auto clean_job = clean_lab.DeptJoinJob();
  ASSERT_TRUE(clean_job.ok());
  auto clean = clean_lab.engine->ExecuteCollect(*clean_job,
                                                ExecutionMode::kSmpe);
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(clean->tuples.size(),
            static_cast<size_t>(ReplicatedLab::kEmployees));
  EXPECT_EQ(clean->metrics.failovers, 0u);

  // SMPE and Fig 7's w/o-SMPE executor fail over through the same
  // dereferencers.
  for (ExecutionMode mode : {ExecutionMode::kSmpe,
                             ExecutionMode::kPartitioned}) {
    SCOPED_TRACE(ExecutionModeToString(mode));
    ReplicatedLab lab(2);
    auto job = lab.DeptJoinJob();
    ASSERT_TRUE(job.ok());
    lab.cluster.SetNodeOutage(2, true);
    auto result = lab.engine->ExecuteCollect(*job, mode);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(ReplicatedLab::Canonical(result->tuples),
              ReplicatedLab::Canonical(clean->tuples));
    EXPECT_GT(result->metrics.failovers, 0u);
    EXPECT_GT(result->metrics.replica_reads, 0u);
    lab.cluster.SetNodeOutage(2, false);
  }
}

TEST(Failover, RfTwoSurvivesAnOutageStrikingMidQueryDeterministically) {
  EngineOptions options;
  options.smpe.deterministic_seed = 7;
  ReplicatedLab lab(2, options);

  auto fired = std::make_shared<std::atomic<bool>>(false);
  auto clean_job = lab.DeptJoinJob(std::make_shared<OutageTrigger>(
      "trigger", &lab.cluster, 2, nullptr));
  auto outage_job = lab.DeptJoinJob(std::make_shared<OutageTrigger>(
      "trigger", &lab.cluster, 2, fired));
  ASSERT_TRUE(clean_job.ok());
  ASSERT_TRUE(outage_job.ok());

  auto clean = lab.engine->ExecuteCollect(*clean_job, ExecutionMode::kSmpe);
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(clean->tuples.size(),
            static_cast<size_t>(ReplicatedLab::kEmployees));

  auto survived = lab.engine->ExecuteCollect(*outage_job,
                                             ExecutionMode::kSmpe);
  ASSERT_TRUE(fired->load());
  ASSERT_TRUE(survived.ok()) << survived.status().ToString();
  EXPECT_EQ(ReplicatedLab::Canonical(survived->tuples),
            ReplicatedLab::Canonical(clean->tuples));
  EXPECT_GT(survived->metrics.failovers, 0u);
  EXPECT_GT(survived->metrics.replica_reads, 0u);
  // No retries were configured: failover alone carried the job — replicas
  // are consulted before any backoff, not after burning the retry budget.
  EXPECT_EQ(survived->metrics.retries, 0u);
  lab.cluster.SetNodeOutage(2, false);

  // The lifted cluster runs the clean job again, bit-for-bit with the
  // deterministic replay of the first clean run.
  auto after = lab.engine->ExecuteCollect(*clean_job, ExecutionMode::kSmpe);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(ReplicatedLab::Canonical(after->tuples),
            ReplicatedLab::Canonical(clean->tuples));
}

TEST(Failover, RfTwoSurvivesMidQueryOutageInThreadedMode) {
  ReplicatedLab lab(2);
  auto fired = std::make_shared<std::atomic<bool>>(false);
  auto clean_job = lab.DeptJoinJob(std::make_shared<OutageTrigger>(
      "trigger", &lab.cluster, 1, nullptr));
  auto outage_job = lab.DeptJoinJob(std::make_shared<OutageTrigger>(
      "trigger", &lab.cluster, 1, fired));
  ASSERT_TRUE(clean_job.ok());
  ASSERT_TRUE(outage_job.ok());

  auto clean = lab.engine->ExecuteCollect(*clean_job, ExecutionMode::kSmpe);
  ASSERT_TRUE(clean.ok());
  auto survived = lab.engine->ExecuteCollect(*outage_job,
                                             ExecutionMode::kSmpe);
  ASSERT_TRUE(fired->load());
  ASSERT_TRUE(survived.ok()) << survived.status().ToString();
  EXPECT_EQ(ReplicatedLab::Canonical(survived->tuples),
            ReplicatedLab::Canonical(clean->tuples));
  EXPECT_GT(survived->metrics.failovers, 0u);
  lab.cluster.SetNodeOutage(1, false);
}

TEST(Failover, OutageDuringBroadcastRedirectsCoverageWhenReplicated) {
  // The broadcast happens mid-job here: stage 0 dereferences one dept
  // record; the trigger referencer then downs node 2 and emits a broadcast
  // range over the index, so the fan-out itself runs against a dead
  // destination. With replicas the copy is redirected (kept local, resolved
  // on the dead node's behalf); coverage stays exact.
  class OutageThenBroadcast final : public Referencer {
   public:
    OutageThenBroadcast(std::string name, sim::Cluster* cluster,
                        std::shared_ptr<std::atomic<bool>> fired)
        : Referencer(std::move(name)), cluster_(cluster),
          fired_(std::move(fired)) {}
    Status Execute(const ExecContext&, const Tuple& input,
                   std::vector<Tuple>* out) const override {
      if (fired_ != nullptr && !fired_->exchange(true)) {
        cluster_->SetNodeOutage(2, true);
      }
      Tuple range = Tuple::Range(
          io::Pointer::Broadcast(io::EncodeInt64Key(0)),
          io::Pointer::Broadcast(io::EncodeInt64Key(
              ReplicatedLab::kDepts - 1)));
      range.records = input.records;
      out->push_back(std::move(range));
      return Status::OK();
    }
   private:
    sim::Cluster* cluster_;
    std::shared_ptr<std::atomic<bool>> fired_;
  };

  EngineOptions options;
  options.smpe.deterministic_seed = 11;
  ReplicatedLab lab(2, options);
  auto dept = lab.engine->catalog().Get("dept");
  auto emp = lab.engine->catalog().Get("emp");
  ASSERT_TRUE(dept.ok());
  ASSERT_TRUE(emp.ok());

  auto build = [&](std::shared_ptr<std::atomic<bool>> fired) {
    return JobBuilder("broadcast-under-outage")
        .Initial(Tuple::Point(io::Pointer::Keyed(io::EncodeInt64Key(0))))
        .Add(MakePointDereferencer("deref-seed", *dept))
        .Add(std::make_shared<OutageThenBroadcast>("trigger", &lab.cluster,
                                                   fired))
        .Add(MakeRangeDereferencer("deref-idx", lab.Index()))
        .Add(MakeIndexEntryReferencer("ref-entry"))
        .Add(MakePointDereferencer("deref-emp", *emp))
        .Build();
  };
  auto clean_job = build(nullptr);
  auto outage_job = build(std::make_shared<std::atomic<bool>>(false));
  ASSERT_TRUE(clean_job.ok());
  ASSERT_TRUE(outage_job.ok());

  auto clean = lab.engine->ExecuteCollect(*clean_job, ExecutionMode::kSmpe);
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(clean->tuples.size(),
            static_cast<size_t>(ReplicatedLab::kEmployees));

  auto survived = lab.engine->ExecuteCollect(*outage_job,
                                             ExecutionMode::kSmpe);
  ASSERT_TRUE(survived.ok()) << survived.status().ToString();
  EXPECT_EQ(ReplicatedLab::Canonical(survived->tuples),
            ReplicatedLab::Canonical(clean->tuples));
  EXPECT_GT(survived->metrics.broadcast_redirects, 0u);
  EXPECT_GT(survived->metrics.failovers, 0u);
  lab.cluster.SetNodeOutage(2, false);
}

TEST(Failover, OutageMidBatchFailsWholeBatchesOverToReplicas) {
  EngineOptions options;
  options.smpe.deterministic_seed = 13;
  options.smpe.batch.enabled = true;
  options.smpe.batch.max_batch_size = 16;
  ReplicatedLab lab(2, options);

  auto fired = std::make_shared<std::atomic<bool>>(false);
  auto clean_job = lab.DeptJoinJob(std::make_shared<OutageTrigger>(
      "trigger", &lab.cluster, 3, nullptr));
  auto outage_job = lab.DeptJoinJob(std::make_shared<OutageTrigger>(
      "trigger", &lab.cluster, 3, fired));
  ASSERT_TRUE(clean_job.ok());
  ASSERT_TRUE(outage_job.ok());

  auto clean = lab.engine->ExecuteCollect(*clean_job, ExecutionMode::kSmpe);
  ASSERT_TRUE(clean.ok());
  ASSERT_GT(clean->metrics.deref_batches, 0u);

  auto survived = lab.engine->ExecuteCollect(*outage_job,
                                             ExecutionMode::kSmpe);
  ASSERT_TRUE(fired->load());
  ASSERT_TRUE(survived.ok()) << survived.status().ToString();
  EXPECT_EQ(ReplicatedLab::Canonical(survived->tuples),
            ReplicatedLab::Canonical(clean->tuples));
  EXPECT_GT(survived->metrics.deref_batches, 0u);
  EXPECT_GT(survived->metrics.failovers, 0u);
  lab.cluster.SetNodeOutage(3, false);
}

TEST(Failover, AllReplicasDownSurfacesTheOutageError) {
  ReplicatedLab lab(2);
  auto job = lab.DeptJoinJob();
  ASSERT_TRUE(job.ok());
  // Partition p lives on nodes {p%4, (p+1)%4}; downing two adjacent nodes
  // kills both replicas of at least one partition.
  lab.cluster.SetNodeOutage(1, true);
  lab.cluster.SetNodeOutage(2, true);
  auto result = lab.engine->ExecuteCollect(*job, ExecutionMode::kSmpe);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable()) << result.status().ToString();
  lab.cluster.SetNodeOutage(1, false);
  lab.cluster.SetNodeOutage(2, false);
  auto recovered = lab.engine->ExecuteCollect(*job, ExecutionMode::kSmpe);
  ASSERT_TRUE(recovered.ok());
}

// ------------------------------------------------------------ hedged reads

/// Engine x device timing. Both engines run the one hedge protocol; a
/// deadline of 0 hedges every eligible point read, on either engine,
/// whatever the timing.
class HedgedReads
    : public ::testing::TestWithParam<std::tuple<SmpeEngine, bool>> {};

TEST_P(HedgedReads, SecondReplicaRacesTheSlowPrimaryWithoutChangingResults) {
  if (ProcessThreads() < 0) GTEST_SKIP() << "/proc/self/status unreadable";
  const auto [engine, timed] = GetParam();
  sim::ClusterOptions cluster_options = sim::ClusterOptions::ForNodes(4);
  // Timed disks make the primary genuinely slow; a small time scale keeps
  // the test fast.
  cluster_options.EnableTiming(timed, 0.05);

  EngineOptions plain;
  plain.smpe.engine = engine;
  ReplicatedLab clean_lab(2, plain);
  auto clean_job = clean_lab.DeptJoinJob();
  ASSERT_TRUE(clean_job.ok());
  auto clean = clean_lab.engine->ExecuteCollect(*clean_job,
                                                ExecutionMode::kSmpe);
  ASSERT_TRUE(clean.ok());

  EngineOptions hedged = plain;
  hedged.smpe.hedge.enabled = true;
  hedged.smpe.hedge.deadline_us = 0;  // hedge every point read
  ReplicatedLab lab(2, hedged, cluster_options);
  auto job = lab.DeptJoinJob();
  ASSERT_TRUE(job.ok());

  // A warm-up run starts the threads that live as long as the cluster: a
  // timed read starts the device timer thread on first use.
  ASSERT_TRUE(lab.engine->ExecuteCollect(*job, ExecutionMode::kSmpe).ok());

  // Sample the thread count about every millisecond while the run races.
  std::atomic<bool> stop{false};
  std::atomic<int> peak{0};
  std::thread sampler([&] {
    while (!stop.load()) {
      peak.store(std::max(peak.load(), ProcessThreads()));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const int before = ProcessThreads();
  auto result = lab.engine->ExecuteCollect(*job, ExecutionMode::kSmpe);
  stop.store(true);
  sampler.join();

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(ReplicatedLab::Canonical(result->tuples),
            ReplicatedLab::Canonical(clean->tuples));
  // One hedge per point dereference: 120 emp reads and 120 dept reads.
  EXPECT_EQ(result->metrics.hedged_reads,
            static_cast<uint64_t>(2 * ReplicatedLab::kEmployees));
  // Winners on either side are fine; what is not fine is double emission —
  // the canonical equality above rules that out.
  EXPECT_LE(result->metrics.hedge_wins, result->metrics.hedged_reads);
  // No thread per hedge, and none per run.
  EXPECT_LE(peak.load(), before);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, HedgedReads,
    ::testing::Combine(::testing::Values(SmpeEngine::kThreaded,
                                         SmpeEngine::kAsync),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<SmpeEngine, bool>>& info) {
      return std::string(std::get<0>(info.param) == SmpeEngine::kThreaded
                             ? "threaded"
                             : "async") +
             (std::get<1>(info.param) ? "_timed" : "_untimed");
    });

/// Engine only: device timing on at 0.05, deadline 0 (both arms of every
/// eligible point read sent at once), and one node whose disk spikes every
/// read to 100x its service time: 10 ms against 0.1 ms.
class HedgedReadsOneSlowNode : public ::testing::TestWithParam<SmpeEngine> {};

TEST_P(HedgedReadsOneSlowNode, TheFirstArmToSucceedIsAdopted) {
  EngineOptions plain;
  plain.smpe.engine = GetParam();
  ReplicatedLab clean_lab(2, plain);
  auto clean_job = clean_lab.DeptJoinJob();
  ASSERT_TRUE(clean_job.ok());
  auto clean = clean_lab.engine->ExecuteCollect(*clean_job,
                                                ExecutionMode::kSmpe);
  ASSERT_TRUE(clean.ok());

  sim::ClusterOptions cluster_options = sim::ClusterOptions::ForNodes(4);
  cluster_options.EnableTiming(true, 0.05);
  EngineOptions hedged = plain;
  hedged.smpe.hedge.enabled = true;
  hedged.smpe.hedge.deadline_us = 0;
  ReplicatedLab lab(2, hedged, cluster_options);
  constexpr sim::NodeId kSlow = 1;
  sim::FaultOptions spike;
  spike.latency_spike_rate = 1.0;
  spike.latency_spike_multiplier = 100.0;
  lab.cluster.node(kSlow).disk().ConfigureFaults(spike);

  // Point reads whose second arm goes to the slow node: their primary
  // answers about 100x sooner and is adopted, so the hedge wins none of
  // them. Counted from the placement: one read per employee, one per
  // employee's department.
  auto emp = lab.engine->catalog().Get("emp");
  auto dept = lab.engine->catalog().Get("dept");
  ASSERT_TRUE(emp.ok() && dept.ok());
  auto secondary_is_slow = [kSlow](const io::File& file, int64_t key) {
    const uint32_t p =
        file.partitioner().PartitionOf(io::EncodeInt64Key(key));
    return file.NodeOfReplica(p, 1) == kSlow;
  };
  uint64_t slow_secondaries = 0;
  for (int i = 0; i < ReplicatedLab::kEmployees; ++i) {
    slow_secondaries += secondary_is_slow(**emp, i) ? 1 : 0;
    slow_secondaries +=
        secondary_is_slow(**dept, i % ReplicatedLab::kDepts) ? 1 : 0;
  }
  ASSERT_GT(slow_secondaries, 0u);

  auto job = lab.DeptJoinJob();
  ASSERT_TRUE(job.ok());
  auto result = lab.engine->ExecuteCollect(*job, ExecutionMode::kSmpe);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(ReplicatedLab::Canonical(result->tuples),
            ReplicatedLab::Canonical(clean->tuples));
  const uint64_t hedged_reads = result->metrics.hedged_reads;
  EXPECT_EQ(hedged_reads, static_cast<uint64_t>(2 * ReplicatedLab::kEmployees));
  // Reads whose primary is on the slow node are won by the second arm...
  EXPECT_GT(result->metrics.hedge_wins, 0u);
  // ...and none whose second arm is the slow one.
  EXPECT_LE(result->metrics.hedge_wins, hedged_reads - slow_secondaries)
      << slow_secondaries << " reads sent their second arm to the slow node";
}

INSTANTIATE_TEST_SUITE_P(
    Engines, HedgedReadsOneSlowNode,
    ::testing::Values(SmpeEngine::kThreaded, SmpeEngine::kAsync),
    [](const ::testing::TestParamInfo<SmpeEngine>& info) {
      return std::string(info.param == SmpeEngine::kThreaded ? "threaded"
                                                             : "async");
    });

TEST(HedgedReads, DisabledUnderDeterministicSchedules) {
  EngineOptions options;
  options.smpe.hedge.enabled = true;
  options.smpe.hedge.deadline_us = 0;
  options.smpe.deterministic_seed = 5;
  ReplicatedLab lab(2, options);
  auto job = lab.DeptJoinJob();
  ASSERT_TRUE(job.ok());
  auto result = lab.engine->ExecuteCollect(*job, ExecutionMode::kSmpe);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->metrics.hedged_reads, 0u);
  EXPECT_EQ(result->metrics.hedge_wins, 0u);
}

// ------------------------------------------- deadlines and cancellation

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

/// Fans one input out into `n` keyed tuples.
class FanOut final : public Referencer {
 public:
  FanOut(std::string name, int n) : Referencer(std::move(name)), n_(n) {}
  Status Execute(const ExecContext&, const Tuple&,
                 std::vector<Tuple>* out) const override {
    for (int i = 0; i < n_; ++i) {
      out->push_back(Tuple::Point(io::Pointer::Keyed(io::EncodeInt64Key(i))));
    }
    return Status::OK();
  }
 private:
  int n_;
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

TEST(Deadline, ExpiryReturnsDeadlineExceededAndDropsQueuedWork) {
  sim::Cluster cluster(sim::ClusterOptions::ForNodes(4));
  SmpeOptions options;
  options.threads_per_node = 1;  // serialize: most tasks still queued at expiry
  options.deadline_ms = 10;
  SmpeExecutor executor(&cluster, options);

  auto executed = std::make_shared<std::atomic<uint64_t>>(0);
  auto job = SleepyJob(/*sleep_us=*/20000, /*fan_out=*/32, executed);
  ASSERT_TRUE(job.ok());

  StopWatch watch;
  TupleCollector sink;
  auto result = executor.Execute(*job, sink.AsSink());
  const double elapsed_ms = watch.ElapsedMillis();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("sleepy"), std::string::npos)
      << result.status().ToString();
  // Without cancellation the 4x32 sleepy tasks at 20ms each on one thread
  // per node would take ~640ms; expiry must cut that short: in-flight tasks
  // finish their attempt, queued ones drain unexecuted.
  EXPECT_LT(elapsed_ms, 500.0);
  EXPECT_LT(executed->load(), 4u + 4u * 32u);

  // Zero leaked tasks: the same executor immediately runs a fast job to
  // completion within the same deadline.
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

TEST(Deadline, FiresInDeterministicModeToo) {
  sim::Cluster cluster(sim::ClusterOptions::ForNodes(4));
  SmpeOptions options;
  options.deterministic_seed = 3;
  options.deadline_ms = 10;
  SmpeExecutor executor(&cluster, options);

  auto executed = std::make_shared<std::atomic<uint64_t>>(0);
  auto job = SleepyJob(/*sleep_us=*/20000, /*fan_out=*/32, executed);
  ASSERT_TRUE(job.ok());
  StopWatch watch;
  auto result = executor.Execute(*job, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  EXPECT_LT(watch.ElapsedMillis(), 500.0);
  EXPECT_LT(executed->load(), 4u + 4u * 32u);
}

TEST(Deadline, GenerousDeadlineNeverFires) {
  sim::Cluster cluster(sim::ClusterOptions::ForNodes(4));
  SmpeOptions options;
  options.deadline_ms = 60000;
  SmpeExecutor executor(&cluster, options);
  auto executed = std::make_shared<std::atomic<uint64_t>>(0);
  auto job = SleepyJob(/*sleep_us=*/10, /*fan_out=*/8, executed);
  ASSERT_TRUE(job.ok());
  TupleCollector sink;
  auto result = executor.Execute(*job, sink.AsSink());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->metrics.output_tuples, 4u * 8u);
  EXPECT_EQ(result->metrics.tasks_dropped_on_failure, 0u);
}

TEST(Deadline, FirstPermanentErrorWinsOverLaterExpiry) {
  // A permanent error cancels the run before the (generous) deadline; the
  // cause reported must be the error, not kDeadlineExceeded.
  class FailingDeref final : public Dereferencer {
   public:
    explicit FailingDeref(std::string name) : Dereferencer(std::move(name)) {}
    Status Execute(const ExecContext&, const Tuple&,
                   std::vector<Tuple>*) const override {
      return Status::Aborted("poisoned stage");
    }
  };
  sim::Cluster cluster(sim::ClusterOptions::ForNodes(2));
  SmpeOptions options;
  options.deadline_ms = 60000;
  SmpeExecutor executor(&cluster, options);
  auto job = JobBuilder("poisoned")
                 .Initial(Tuple::Range(
                     io::Pointer::Broadcast(io::EncodeInt64Key(0)),
                     io::Pointer::Broadcast(io::EncodeInt64Key(1))))
                 .Add(std::make_shared<FailingDeref>("poison"))
                 .Build();
  ASSERT_TRUE(job.ok());
  auto result = executor.Execute(*job, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsAborted()) << result.status().ToString();
  EXPECT_NE(result.status().message().find("poisoned stage"),
            std::string::npos);
}

// ----------------------------------------------------------- cancel token

TEST(CancelToken, FirstCauseWinsAndResetRearms) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.Cancel(Status::Aborted("first")));
  EXPECT_FALSE(token.Cancel(Status::IOError("second")));
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.cause().IsAborted());
  EXPECT_NE(token.cause().message().find("first"), std::string::npos);
  token.Reset();
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.Cancel(Status::DeadlineExceeded("late")));
  EXPECT_TRUE(token.cause().IsDeadlineExceeded());
}

TEST(CancelToken, ConcurrentCancelsAgreeOnOneCause) {
  CancelToken token;
  constexpr int kThreads = 8;
  std::atomic<int> wins{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      if (token.Cancel(Status::Aborted("cause " + std::to_string(t)))) {
        wins.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(wins.load(), 1);
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.cause().IsAborted());
}

}  // namespace
}  // namespace lakeharbor::rede
