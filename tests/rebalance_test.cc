#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "io/key_codec.h"
#include "io/partitioned_file.h"
#include "io/placement.h"
#include "io/rebalancer.h"
#include "obs/profile.h"
#include "rede/builtin_derefs.h"
#include "rede/builtin_refs.h"
#include "rede/engine.h"
#include "sched/scheduler.h"
#include "sim/cluster.h"

namespace lakeharbor::rede {
namespace {

// ---------------------------------------------------- loud rf clamping

TEST(PlacementClamp, RequestedRfIsKeptAlongsideTheEffectiveOne) {
  io::PlacementMap clamped({0, 1}, 3);
  EXPECT_TRUE(clamped.clamped());
  EXPECT_EQ(clamped.replication_factor(), 2u);
  EXPECT_EQ(clamped.requested_replication_factor(), 3u);

  io::PlacementMap exact(4, 2);
  EXPECT_FALSE(exact.clamped());
  EXPECT_EQ(exact.replication_factor(), 2u);
  EXPECT_EQ(exact.requested_replication_factor(), 2u);
}

TEST(PlacementClamp, RebalanceOntoMoreMembersRegainsTheRequestedRf) {
  // A file loaded with rf=3 on 2 nodes serves with rf=2; a new map built
  // from the REQUESTED rf over 3 members restores full replication. This
  // is the contract RebalanceFile relies on.
  io::PlacementMap before({0, 1}, 3);
  io::PlacementMap after({0, 1, 2}, before.requested_replication_factor());
  EXPECT_FALSE(after.clamped());
  EXPECT_EQ(after.replication_factor(), 3u);
}

// ------------------------------------------- placement epoch state machine

TEST(PlacementTransition, PlanMovesOnlyPartitionsWhoseReplicaSetChanged) {
  io::PlacementManager manager(io::PlacementMap(3, 1));
  auto plan = manager.BeginTransition(io::PlacementMap(4, 1), 8);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->partitions_total, 8u);
  // Primaries: old p%3 vs new p%4 — partitions 0..2 stay put.
  EXPECT_EQ(plan->partitions_unchanged, 3u);
  ASSERT_EQ(plan->moves.size(), 5u);
  for (const io::PartitionMove& move : plan->moves) {
    ASSERT_EQ(move.targets.size(), 1u) << move.partition;
    EXPECT_EQ(move.targets[0], move.partition % 4) << move.partition;
    ASSERT_EQ(move.sources.size(), 1u) << move.partition;
    EXPECT_EQ(move.sources[0], move.partition % 3) << move.partition;
  }
  // Unchanged partitions are pre-flipped; moved ones are not.
  EXPECT_TRUE(manager.PartitionMigrated(0));
  EXPECT_FALSE(manager.PartitionMigrated(3));
  EXPECT_TRUE(manager.rebalancing());
}

TEST(PlacementTransition, DoubleBeginAndEarlyCommitAreRejected) {
  io::PlacementManager manager(io::PlacementMap(3, 1));
  ASSERT_TRUE(manager.BeginTransition(io::PlacementMap(4, 1), 8).ok());

  auto again = manager.BeginTransition(io::PlacementMap(4, 1), 8);
  ASSERT_FALSE(again.ok());
  EXPECT_TRUE(again.status().IsInvalidArgument());

  Status early = manager.CommitTransition(1);
  ASSERT_FALSE(early.ok());
  EXPECT_TRUE(early.IsInvalidArgument());
  EXPECT_NE(early.message().find("not yet drained"), std::string::npos);

  for (uint32_t p = 0; p < 8; ++p) manager.MarkPartitionMigrated(p);
  EXPECT_TRUE(manager.CommitTransition(1).ok());
  EXPECT_FALSE(manager.rebalancing());
  // Committed: only the new map serves.
  EXPECT_EQ(manager.ReplicaCountFor(7), 1u);
  EXPECT_EQ(manager.ReplicaNode(7, 0), 7u % 4);
}

TEST(PlacementTransition, FlipWidensTheReplicaSetWithTheOldTail) {
  // rf=2 over {0,1,2,3} -> rf=2 over {0,1,2,3,4}.
  io::PlacementManager manager(io::PlacementMap(4, 2));
  ASSERT_TRUE(
      manager.BeginTransition(io::PlacementMap({0, 1, 2, 3, 4}, 2), 8).ok());

  // Unflipped partition 3: serve the OLD replicas only ({3, 0}).
  EXPECT_EQ(manager.ReplicaCountFor(3), 2u);
  EXPECT_EQ(manager.ReplicaNode(3, 0), 3u);
  EXPECT_EQ(manager.ReplicaNode(3, 1), 0u);
  EXPECT_EQ(manager.AttributeRead(3, 0), io::ReadEpoch::kOldEpoch);

  manager.MarkPartitionMigrated(3);
  // Flipped: new replicas {3, 4} first, old {3, 0} appended as failover.
  EXPECT_EQ(manager.ReplicaCountFor(3), 4u);
  EXPECT_EQ(manager.ReplicaNode(3, 0), 3u);
  EXPECT_EQ(manager.ReplicaNode(3, 1), 4u);
  EXPECT_EQ(manager.ReplicaNode(3, 2), 3u);
  EXPECT_EQ(manager.ReplicaNode(3, 3), 0u);
  EXPECT_EQ(manager.AttributeRead(3, 0), io::ReadEpoch::kNewEpoch);
  EXPECT_EQ(manager.AttributeRead(3, 1), io::ReadEpoch::kNewEpoch);
  EXPECT_EQ(manager.AttributeRead(3, 3), io::ReadEpoch::kOldEpoch);
  // A replica index from a pre-flip count is folded, never out of range.
  EXPECT_EQ(manager.ReplicaNode(3, 5), manager.ReplicaNode(3, 1));
}

TEST(PlacementTransition, FirstLiveReplicaFailsOverAcrossTheEpochFlip) {
  sim::ClusterOptions cluster_options = sim::ClusterOptions::ForNodes(4);
  cluster_options.max_nodes = 5;
  sim::Cluster cluster(cluster_options);
  ASSERT_TRUE(cluster.AddNode().ok());

  io::PlacementManager manager(io::PlacementMap(4, 2));
  ASSERT_TRUE(
      manager.BeginTransition(io::PlacementMap({0, 1, 2, 3, 4}, 2), 8).ok());
  manager.MarkPartitionMigrated(3);

  // New replicas of partition 3 are {3, 4}; down both. The read falls
  // through to the OLD failover tail {3, 0} -> node 0 at slot 3.
  cluster.SetNodeOutage(3, true);
  cluster.SetNodeOutage(4, true);
  auto live = manager.FirstLiveReplica(cluster, 3);
  ASSERT_TRUE(live.has_value());
  EXPECT_EQ(*live, 3u);
  EXPECT_EQ(manager.ReplicaNode(3, *live), 0u);
  EXPECT_EQ(manager.AttributeRead(3, *live), io::ReadEpoch::kOldEpoch);

  // Lift the new primary: it is preferred again.
  cluster.SetNodeOutage(3, false);
  live = manager.FirstLiveReplica(cluster, 3);
  ASSERT_TRUE(live.has_value());
  EXPECT_EQ(*live, 0u);
  EXPECT_EQ(manager.AttributeRead(3, *live), io::ReadEpoch::kNewEpoch);
  cluster.SetNodeOutage(4, false);
}

TEST(PlacementTransition, AbortRestoresTheOldServingMap) {
  io::PlacementManager manager(io::PlacementMap(4, 2));
  ASSERT_TRUE(
      manager.BeginTransition(io::PlacementMap({0, 1, 2, 3, 4}, 2), 8).ok());
  manager.MarkPartitionMigrated(2);
  manager.AbortTransition();
  EXPECT_FALSE(manager.rebalancing());
  EXPECT_EQ(manager.ReplicaCountFor(2), 2u);
  EXPECT_EQ(manager.ReplicaNode(2, 0), 2u);
  EXPECT_EQ(manager.ReplicaNode(2, 1), 3u);
  // Aborting again is a no-op, and a new transition can begin.
  manager.AbortTransition();
  EXPECT_TRUE(
      manager.BeginTransition(io::PlacementMap({0, 1, 2, 3, 4}, 2), 8).ok());
}

TEST(PlacementTransition, BroadcastOwnerHonorsTheStampedFanoutEpoch) {
  io::PlacementManager manager(io::PlacementMap(4, 1));
  // Mid-rebalance: the old primary owns broadcasts, flipped or not.
  ASSERT_TRUE(
      manager.BeginTransition(io::PlacementMap({0, 1, 2, 3, 4}, 1), 8).ok());
  manager.MarkPartitionMigrated(4);
  EXPECT_EQ(manager.BroadcastOwner(4, io::kEpochCurrent), 4u % 4);
  for (uint32_t p = 0; p < 8; ++p) manager.MarkPartitionMigrated(p);
  ASSERT_TRUE(manager.CommitTransition(/*serving_epoch=*/1).ok());

  // A tuple fanned out BEFORE the commit (stamped epoch 0) resolves
  // against the retired map; live tuples resolve against the new one.
  EXPECT_EQ(manager.BroadcastOwner(4, /*fanout_epoch=*/0), 4u % 4);
  EXPECT_EQ(manager.BroadcastOwner(4, io::kEpochCurrent), 4u % 5);
  EXPECT_EQ(manager.BroadcastOwner(4, /*fanout_epoch=*/1), 4u % 5);
}

// -------------------------------------------------- elastic membership

TEST(ElasticCluster, JoinsAreDenseAndBoundedByCapacity) {
  sim::ClusterOptions options = sim::ClusterOptions::ForNodes(2);
  options.max_nodes = 3;
  sim::Cluster cluster(options);

  auto id = cluster.AddNode();
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 2u);
  EXPECT_EQ(cluster.num_nodes(), 3u);

  auto full = cluster.AddNode();
  ASSERT_FALSE(full.ok());
  EXPECT_TRUE(full.status().IsResourceExhausted()) << full.status().ToString();
}

TEST(ElasticCluster, RemoveNodeValidatesAndExcludesFromActiveSet) {
  sim::Cluster cluster(sim::ClusterOptions::ForNodes(3));
  EXPECT_TRUE(cluster.RemoveNode(7).IsInvalidArgument());
  ASSERT_TRUE(cluster.RemoveNode(1).ok());
  EXPECT_TRUE(cluster.NodeIsRemoved(1));
  EXPECT_TRUE(cluster.NodeIsDown(1));
  EXPECT_TRUE(cluster.RemoveNode(1).IsInvalidArgument());
  EXPECT_EQ(cluster.num_active_nodes(), 2u);
  EXPECT_EQ(cluster.ActiveNodeIds(), (std::vector<sim::NodeId>{0, 2}));
  // Ids stay dense: the removed slot is never reused.
  EXPECT_EQ(cluster.num_nodes(), 3u);

  ASSERT_TRUE(cluster.RemoveNode(2).ok());
  Status last = cluster.RemoveNode(0);
  ASSERT_FALSE(last.ok());
  EXPECT_TRUE(last.IsInvalidArgument());
  EXPECT_NE(last.message().find("last active node"), std::string::npos);
}

TEST(ElasticCluster, ReplicatedWriteAgainstANodeRemovedMidWrite) {
  sim::Cluster cluster(sim::ClusterOptions::ForNodes(3));
  ASSERT_TRUE(cluster.ChargeReplicatedWrite(0, {1, 2}, 64).ok());
  const uint64_t node1_before =
      cluster.node(1).disk().stats().bytes_written.load();
  const uint64_t node2_before =
      cluster.node(2).disk().stats().bytes_written.load();

  ASSERT_TRUE(cluster.RemoveNode(2).ok());
  // {1, 2}: replica 1 is charged, then the removed node fails the write.
  Status mid = cluster.ChargeReplicatedWrite(0, {1, 2}, 64);
  ASSERT_FALSE(mid.ok());
  EXPECT_TRUE(mid.IsUnavailable()) << mid.ToString();
  EXPECT_NE(mid.message().find("node 2"), std::string::npos) << mid.ToString();
  EXPECT_EQ(cluster.node(2).disk().stats().bytes_written.load(), node2_before)
      << "a removed node must never be charged";

  // {2, 1}: the removed node fails first; node 1 is not charged either.
  const uint64_t node1_mid = cluster.node(1).disk().stats().bytes_written.load();
  EXPECT_GT(node1_mid, node1_before);
  Status first = cluster.ChargeReplicatedWrite(0, {2, 1}, 64);
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(first.IsUnavailable());
  EXPECT_EQ(cluster.node(1).disk().stats().bytes_written.load(), node1_mid);
}

// --------------------------------------------------- engine lab fixture

/// The failover_test employee/department dataset on an elastic cluster:
/// 120 employees over 8 partitions, 10 departments over 4, and a global
/// B-tree over emp's dept field, all replicated `rf`-way with headroom
/// (max_nodes) for joins.
struct ElasticLab {
  static constexpr int kEmployees = 120;
  static constexpr int kDepts = 10;

  explicit ElasticLab(uint32_t rf, EngineOptions options = {},
                      uint32_t num_nodes = 4, uint32_t max_nodes = 8)
      : cluster(MakeClusterOptions(num_nodes, max_nodes)) {
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
    auto built = engine->BuildStructure(spec, "dept");
    LH_CHECK(built.ok());
    idx = std::move(built).value();
    LH_CHECK(idx != nullptr);
  }

  static sim::ClusterOptions MakeClusterOptions(uint32_t num_nodes,
                                                uint32_t max_nodes) {
    sim::ClusterOptions options = sim::ClusterOptions::ForNodes(num_nodes);
    options.max_nodes = max_nodes;
    return options;
  }

  StatusOr<Job> DeptJoinJob() {
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

  StatusOr<Job> LookupJob(int employee) {
    return JobBuilder("emp-lookup")
        .Initial(Tuple::Point(io::Pointer::Keyed(io::EncodeInt64Key(employee))))
        .Add(MakePointDereferencer("deref-emp", emp))
        .Build();
  }

  /// Register every file of the lab with `rebalancer`.
  void RegisterAll(io::Rebalancer* rebalancer) {
    rebalancer->RegisterFile(emp.get());
    rebalancer->RegisterFile(dept.get());
    rebalancer->RegisterFile(idx.get());
  }

  /// Bytes a rebalance from this lab's current placements onto `members`
  /// must copy: one PartitionBytes charge per (partition, new replica not
  /// already holding a copy).
  uint64_t ExpectedCopyBytes(const std::vector<sim::NodeId>& members) const {
    uint64_t total = 0;
    for (const io::File* file :
         std::vector<const io::File*>{emp.get(), dept.get(), idx.get()}) {
      const io::PlacementMap old_map = file->placement();
      io::PlacementMap new_map(members,
                               old_map.requested_replication_factor());
      for (uint32_t p = 0; p < file->num_partitions(); ++p) {
        std::vector<sim::NodeId> old_nodes = old_map.ReplicaNodes(p);
        for (sim::NodeId n : new_map.ReplicaNodes(p)) {
          if (std::find(old_nodes.begin(), old_nodes.end(), n) ==
              old_nodes.end()) {
            total += file->PartitionBytes(p);
          }
        }
      }
    }
    return total;
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
  std::shared_ptr<io::BtreeFile> idx;
};

/// JobHandle::Wait returns when the result is published, a hair before the
/// worker thread releases its slot — so "zero leaked in-flight work" is
/// asserted as quiescence within a bounded grace period, not instantly.
bool SchedulerDrained(const sched::JobScheduler& scheduler) {
  for (int i = 0; i < 2000; ++i) {
    if (scheduler.queued() == 0 && scheduler.running() == 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// Thread-safe tuple sink for scheduler submissions.
struct Collector {
  std::mutex mutex;
  std::vector<Tuple> tuples;
  ResultSink Sink() {
    return [this](const Tuple& t) {
      std::lock_guard<std::mutex> lock(mutex);
      tuples.push_back(t);
    };
  }
};

// ------------------------------------------------ end-to-end rebalancing

TEST(Rebalance, JoinCopiesExactlyTheMovedBytesAndRemapsPlacement) {
  ElasticLab lab(2);
  auto baseline_job = lab.DeptJoinJob();
  ASSERT_TRUE(baseline_job.ok());
  auto baseline = lab.engine->ExecuteCollect(*baseline_job,
                                             ExecutionMode::kSmpe);
  ASSERT_TRUE(baseline.ok());
  ASSERT_EQ(baseline->tuples.size(),
            static_cast<size_t>(ElasticLab::kEmployees));

  sched::SchedulerOptions sched_options;
  sched_options.execution_slots = 4;
  sched_options.io_tokens = 8;
  sched::JobScheduler scheduler(&lab.engine->executor(ExecutionMode::kSmpe),
                                sched_options);
  io::RebalanceOptions options;
  options.copy_chunk_bytes = 64;
  io::Rebalancer rebalancer(&lab.cluster, &scheduler, options);
  lab.RegisterAll(&rebalancer);

  const uint64_t expected_bytes =
      lab.ExpectedCopyBytes({0, 1, 2, 3, 4});
  auto joined = rebalancer.AddNodeAndRebalance();
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(*joined, 4u);

  // Exactly-once copy accounting: every moved (partition, target) pair is
  // charged its partition bytes once — no duplicates, nothing skipped.
  EXPECT_EQ(rebalancer.progress().bytes_copied.load(), expected_bytes);
  EXPECT_EQ(rebalancer.progress().partitions_done.load(),
            rebalancer.progress().partitions_total.load());
  const io::RebalanceReport& report = rebalancer.last_report();
  EXPECT_GT(report.partitions_moved, 0u);
  EXPECT_EQ(report.bytes_copied, expected_bytes);
  EXPECT_EQ(report.job_resubmissions, 0u);
  EXPECT_GT(report.partition_copy_us.count, 0u);

  // All three files committed: the epoch advanced once per file, the new
  // node serves primaries, and no transition is left open.
  EXPECT_EQ(lab.cluster.placement_epoch(), 3u);
  EXPECT_EQ(lab.emp->placement().num_nodes(), 5u);
  EXPECT_FALSE(lab.emp->placement_manager().rebalancing());
  bool node4_serves = false;
  for (uint32_t p = 0; p < lab.emp->num_partitions(); ++p) {
    if (lab.emp->NodeOfPartition(p) == 4u) node4_serves = true;
  }
  EXPECT_TRUE(node4_serves);

  // Zero leaked in-flight work, and the migration flow shows up (drained)
  // in the scheduler's per-(tenant, class) backlog stats.
  EXPECT_TRUE(SchedulerDrained(scheduler));
  bool migration_flow_seen = false;
  for (const auto& flow : scheduler.stats().flows) {
    if (flow.tenant == options.tenant &&
        flow.job_class == sched::JobClass::kMigration) {
      migration_flow_seen = true;
      EXPECT_EQ(flow.queue_depth, 0u);
    }
  }
  EXPECT_TRUE(migration_flow_seen);

  // The query result is bit-identical on the rebalanced cluster.
  auto after_job = lab.DeptJoinJob();
  ASSERT_TRUE(after_job.ok());
  auto after = lab.engine->ExecuteCollect(*after_job, ExecutionMode::kSmpe);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(ElasticLab::Canonical(after->tuples),
            ElasticLab::Canonical(baseline->tuples));
}

TEST(Rebalance, ChaosJoinSurvivesFaultsAndAMidMigrationOutage) {
  // The acceptance scenario: disk faults injected at a nonzero rate, one
  // node outaged in the middle of the migration — a node that is both a
  // migration SOURCE (old replica of moving partitions) and the failover
  // TARGET of foreground reads — with foreground jobs overlapping the
  // whole rebalance. Results must stay bit-identical to the static
  // baseline, every overlapped job's profile must reconcile, and no
  // in-flight work may leak.
  EngineOptions engine_options;
  engine_options.smpe.trace_sample_n = 1;  // profile every job
  engine_options.smpe.retry.max_retries = 6;
  engine_options.smpe.retry.backoff_initial_us = 50;
  engine_options.smpe.retry.backoff_max_us = 2000;
  ElasticLab lab(2, engine_options);

  sched::SchedulerOptions sched_options;
  sched_options.execution_slots = 4;
  sched::JobScheduler scheduler(&lab.engine->executor(ExecutionMode::kSmpe),
                                sched_options);

  // Static baseline, before any fault or membership change.
  auto join_job = lab.DeptJoinJob();
  ASSERT_TRUE(join_job.ok());
  Collector baseline_sink;
  sched::JobSpec baseline_spec;
  baseline_spec.tenant = "analytics";
  baseline_spec.job_class = sched::JobClass::kAnalyticalScan;
  baseline_spec.sink = baseline_sink.Sink();
  auto baseline = scheduler.Run(*join_job, std::move(baseline_spec));
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::multiset<std::string> expected =
      ElasticLab::Canonical(baseline_sink.tuples);
  ASSERT_EQ(expected.size(), static_cast<size_t>(ElasticLab::kEmployees));

  // Inject transient faults everywhere (nonzero rate, both error kinds).
  sim::FaultOptions faults;
  faults.fault_rate = 0.02;
  faults.unavailable_fraction = 0.5;
  faults.seed = 77;
  lab.cluster.ConfigureDiskFaults(faults);

  io::RebalanceOptions options;
  options.copy_chunk_bytes = 128;
  options.max_concurrent_migrations = 2;
  // Slow the copies down so foreground jobs and the outage genuinely
  // overlap the migration window.
  options.throttle_bytes_per_sec = 96 * 1024;
  io::Rebalancer rebalancer(&lab.cluster, &scheduler, options);
  lab.RegisterAll(&rebalancer);

  std::atomic<bool> rebalance_done{false};
  StatusOr<sim::NodeId> join_result = Status::Internal("not run");
  std::thread rebalance_thread([&] {
    join_result = rebalancer.AddNodeAndRebalance();
    rebalance_done.store(true);
  });

  // Wait for the first chunk to land, then strike node 1: an old replica
  // of every partition with p % 4 in {0, 1} — a live migration source —
  // and simultaneously the replica foreground reads fail over to.
  while (rebalancer.progress().chunks_copied.load() == 0 &&
         !rebalance_done.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  lab.cluster.SetNodeOutage(1, true);

  // Foreground traffic while the node is down and copies are in flight.
  struct Foreground {
    std::unique_ptr<Job> job;
    std::unique_ptr<Collector> sink;
    sched::JobHandlePtr handle;
    bool is_lookup = false;
    int employee = 0;
  };
  std::vector<Foreground> foreground;
  auto submit_join = [&]() {
    Foreground fg;
    auto job = lab.DeptJoinJob();
    ASSERT_TRUE(job.ok());
    fg.job = std::make_unique<Job>(std::move(*job));
    fg.sink = std::make_unique<Collector>();
    sched::JobSpec spec;
    spec.tenant = "analytics";
    spec.job_class = sched::JobClass::kAnalyticalScan;
    spec.sink = fg.sink->Sink();
    auto handle = scheduler.Submit(*fg.job, std::move(spec));
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    fg.handle = std::move(*handle);
    foreground.push_back(std::move(fg));
  };
  auto submit_lookup = [&](int employee) {
    Foreground fg;
    auto job = lab.LookupJob(employee);
    ASSERT_TRUE(job.ok());
    fg.job = std::make_unique<Job>(std::move(*job));
    fg.sink = std::make_unique<Collector>();
    fg.is_lookup = true;
    fg.employee = employee;
    sched::JobSpec spec;
    spec.tenant = "serving";
    spec.job_class = sched::JobClass::kPointLookup;
    spec.sink = fg.sink->Sink();
    auto handle = scheduler.Submit(*fg.job, std::move(spec));
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    fg.handle = std::move(*handle);
    foreground.push_back(std::move(fg));
  };

  submit_join();
  submit_lookup(17);
  submit_lookup(42);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  lab.cluster.SetNodeOutage(1, false);
  submit_join();
  submit_lookup(101);

  rebalance_thread.join();
  ASSERT_TRUE(join_result.ok()) << join_result.status().ToString();
  EXPECT_EQ(*join_result, 4u);

  // Every overlapped foreground job: correct, bit-identical, reconciled.
  for (Foreground& fg : foreground) {
    auto result = fg.handle->Wait();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (fg.is_lookup) {
      ASSERT_EQ(fg.sink->tuples.size(), 1u);
      ASSERT_EQ(fg.sink->tuples[0].records.size(), 1u);
      EXPECT_EQ(fg.sink->tuples[0].records[0].bytes(),
                StrFormat("%d|emp%d|%d", fg.employee, fg.employee,
                          fg.employee % ElasticLab::kDepts));
    } else {
      EXPECT_EQ(ElasticLab::Canonical(fg.sink->tuples), expected);
    }
    obs::JobProfile profile = ProfileOf(*result);
    EXPECT_TRUE(profile.Reconciles())
        << (profile.warnings().empty() ? "" : profile.warnings().front());
  }

  // The rebalance finished every move despite faults and the outage.
  EXPECT_EQ(rebalancer.progress().partitions_done.load(),
            rebalancer.progress().partitions_total.load());
  EXPECT_FALSE(lab.emp->placement_manager().rebalancing());
  EXPECT_FALSE(lab.dept->placement_manager().rebalancing());
  EXPECT_FALSE(lab.idx->placement_manager().rebalancing());
  EXPECT_TRUE(SchedulerDrained(scheduler));

  // Reads during the transition window were attributed to an epoch.
  const uint64_t epoch_reads = lab.emp->access_stats().old_epoch_reads.load() +
                               lab.emp->access_stats().new_epoch_reads.load() +
                               lab.idx->access_stats().old_epoch_reads.load() +
                               lab.idx->access_stats().new_epoch_reads.load();
  EXPECT_GT(epoch_reads, 0u);

  // And the lifted, faulty, 5-node cluster still answers identically.
  lab.cluster.ConfigureDiskFaults(sim::FaultOptions{});
  Collector after_sink;
  sched::JobSpec after_spec;
  after_spec.tenant = "analytics";
  after_spec.job_class = sched::JobClass::kAnalyticalScan;
  after_spec.sink = after_sink.Sink();
  auto after = scheduler.Run(*join_job, std::move(after_spec));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(ElasticLab::Canonical(after_sink.tuples), expected);
}

TEST(Rebalance, JoinThenDrainFirstRemovalRoundTrips) {
  ElasticLab lab(2);
  auto job = lab.DeptJoinJob();
  ASSERT_TRUE(job.ok());
  auto baseline = lab.engine->ExecuteCollect(*job, ExecutionMode::kSmpe);
  ASSERT_TRUE(baseline.ok());

  sched::JobScheduler scheduler(&lab.engine->executor(ExecutionMode::kSmpe),
                                sched::SchedulerOptions{});
  io::RebalanceOptions options;
  options.copy_chunk_bytes = 64;
  io::Rebalancer rebalancer(&lab.cluster, &scheduler, options);
  lab.RegisterAll(&rebalancer);

  auto joined = rebalancer.AddNodeAndRebalance();
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  ASSERT_EQ(*joined, 4u);
  EXPECT_EQ(lab.emp->placement().num_nodes(), 5u);

  // Drain-first decommission of the node we just joined: its partitions
  // move away (it serves as a copy source throughout), THEN it leaves.
  Status removed = rebalancer.RemoveNodeAndRebalance(4);
  ASSERT_TRUE(removed.ok()) << removed.ToString();
  EXPECT_TRUE(lab.cluster.NodeIsRemoved(4));
  EXPECT_EQ(lab.cluster.ActiveNodeIds(),
            (std::vector<sim::NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(lab.emp->placement().num_nodes(), 4u);
  for (uint32_t p = 0; p < lab.emp->num_partitions(); ++p) {
    EXPECT_NE(lab.emp->NodeOfPartition(p), 4u) << p;
  }

  // Queries on the round-tripped cluster match the static baseline.
  auto after = lab.engine->ExecuteCollect(*job, ExecutionMode::kSmpe);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(ElasticLab::Canonical(after->tuples),
            ElasticLab::Canonical(baseline->tuples));

  // Invalid drains are rejected up front.
  EXPECT_TRUE(
      rebalancer.RemoveNodeAndRebalance(4).IsInvalidArgument());  // removed
  EXPECT_TRUE(
      rebalancer.RemoveNodeAndRebalance(9).IsInvalidArgument());  // unknown
}

TEST(Rebalance, RefusesToDrainTheLastActiveNode) {
  sim::Cluster cluster(sim::ClusterOptions::ForNodes(1));
  SmpeOptions smpe;
  smpe.threads_per_node = 2;
  SmpeExecutor executor(&cluster, smpe);
  sched::JobScheduler scheduler(&executor, sched::SchedulerOptions{});
  io::Rebalancer rebalancer(&cluster, &scheduler, io::RebalanceOptions{});
  Status refused = rebalancer.RemoveNodeAndRebalance(0);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.IsInvalidArgument()) << refused.ToString();
}

TEST(Rebalance, OutageOfBothMigrationSourcesFailsOverThenResumes) {
  // Down the only live source mid-copy: chunks retry kUnavailable until
  // the outage lifts, and the partition resumes from its recorded offset
  // instead of re-copying — bytes_copied stays exact.
  ElasticLab lab(1);  // rf=1: each moving partition has ONE source
  sched::JobScheduler scheduler(&lab.engine->executor(ExecutionMode::kSmpe),
                                sched::SchedulerOptions{});
  io::RebalanceOptions options;
  options.copy_chunk_bytes = 32;           // many chunks per partition
  options.throttle_bytes_per_sec = 48 * 1024;  // keep the window open
  options.retry.max_retries = 100;         // outlive the outage window
  options.retry.backoff_initial_us = 500;
  options.retry.backoff_max_us = 5000;
  io::Rebalancer rebalancer(&lab.cluster, &scheduler, options);
  lab.RegisterAll(&rebalancer);

  const uint64_t expected_bytes =
      lab.ExpectedCopyBytes({0, 1, 2, 3, 4});
  std::atomic<bool> rebalance_done{false};
  StatusOr<sim::NodeId> join_result = Status::Internal("not run");
  std::thread rebalance_thread([&] {
    join_result = rebalancer.AddNodeAndRebalance();
    rebalance_done.store(true);
  });
  while (rebalancer.progress().chunks_copied.load() == 0 &&
         !rebalance_done.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  lab.cluster.SetNodeOutage(0, true);
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  lab.cluster.SetNodeOutage(0, false);
  rebalance_thread.join();

  ASSERT_TRUE(join_result.ok()) << join_result.status().ToString();
  EXPECT_EQ(rebalancer.progress().bytes_copied.load(), expected_bytes);
  EXPECT_EQ(rebalancer.progress().partitions_done.load(),
            rebalancer.progress().partitions_total.load());
  EXPECT_TRUE(SchedulerDrained(scheduler));
}

TEST(Rebalance, CancelMidMigrationRollsBackAndCountsNoResubmission) {
  // Every source of the join's moves is down, so the one outstanding copy
  // sits in retry backoff. A Cancel that lands there fails the running job
  // with the cancel cause: that ends the rebalance (rolled back, nothing
  // left in the scheduler) and is not a failed attempt to resubmit.
  ElasticLab lab(1);
  auto job = lab.DeptJoinJob();
  ASSERT_TRUE(job.ok());
  auto baseline = lab.engine->ExecuteCollect(*job, ExecutionMode::kSmpe);
  ASSERT_TRUE(baseline.ok());

  sched::JobScheduler scheduler(&lab.engine->executor(ExecutionMode::kSmpe),
                                sched::SchedulerOptions{});
  io::RebalanceOptions options;
  options.max_concurrent_migrations = 1;
  options.retry.max_retries = 1000;  // outlive the cancel
  options.retry.backoff_initial_us = 500;
  options.retry.backoff_max_us = 5000;
  io::Rebalancer rebalancer(&lab.cluster, &scheduler, options);
  lab.RegisterAll(&rebalancer);

  const std::vector<sim::NodeId> sources = lab.cluster.ActiveNodeIds();
  for (sim::NodeId node : sources) lab.cluster.SetNodeOutage(node, true);
  std::atomic<bool> rebalance_done{false};
  StatusOr<sim::NodeId> join_result = Status::Internal("not run");
  std::thread rebalance_thread([&] {
    join_result = rebalancer.AddNodeAndRebalance();
    rebalance_done.store(true);
  });
  while (rebalancer.progress().chunk_retries.load() == 0 &&
         !rebalance_done.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  rebalancer.Cancel(Status::Aborted("operator cancelled the join"));
  rebalance_thread.join();
  for (sim::NodeId node : sources) lab.cluster.SetNodeOutage(node, false);

  ASSERT_FALSE(join_result.ok());
  EXPECT_TRUE(join_result.status().IsAborted())
      << join_result.status().ToString();
  EXPECT_NE(join_result.status().message().find("operator cancelled the join"),
            std::string::npos)
      << join_result.status().ToString();
  EXPECT_GT(rebalancer.progress().chunk_retries.load(), 0u);
  EXPECT_EQ(rebalancer.progress().job_resubmissions.load(), 0u);
  EXPECT_FALSE(lab.emp->placement_manager().rebalancing());
  EXPECT_FALSE(lab.dept->placement_manager().rebalancing());
  EXPECT_FALSE(lab.idx->placement_manager().rebalancing());
  EXPECT_TRUE(SchedulerDrained(scheduler));

  // Rolled back: the lifted cluster answers exactly as before the join.
  auto after = lab.engine->ExecuteCollect(*job, ExecutionMode::kSmpe);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(ElasticLab::Canonical(after->tuples),
            ElasticLab::Canonical(baseline->tuples));
}

TEST(Rebalance, JoinIsIdenticalOnEveryExecutor) {
  // Untimed and fault-free, a join copies the same chunks whatever the
  // order the copies run in. So the capped and uncapped engines, the
  // partitioned executor (which runs each copy body in place) and
  // deterministic replay must report the same rebalance and charge the
  // same device work for it.
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
    ElasticLab lab(2, options);
    sched::JobScheduler scheduler(&lab.engine->executor(executor.mode),
                                  sched::SchedulerOptions{});
    io::RebalanceOptions rebalance;
    rebalance.copy_chunk_bytes = 64;  // several chunks per partition
    io::Rebalancer rebalancer(&lab.cluster, &scheduler, rebalance);
    lab.RegisterAll(&rebalancer);
    const uint64_t expected_bytes = lab.ExpectedCopyBytes({0, 1, 2, 3, 4});
    const sim::ResourceTotals before = lab.cluster.TotalStats();
    auto joined = rebalancer.AddNodeAndRebalance();
    ASSERT_TRUE(joined.ok()) << joined.status().ToString();
    const sim::ResourceTotals after = lab.cluster.TotalStats();
    const io::RebalanceReport& report = rebalancer.last_report();
    EXPECT_EQ(report.bytes_copied, expected_bytes);
    const std::map<std::string, uint64_t> summary = {
        {"partitions_moved", report.partitions_moved},
        {"partitions_unchanged", report.partitions_unchanged},
        {"bytes_copied", report.bytes_copied},
        {"chunks_copied", report.chunks_copied},
        {"chunk_retries", report.chunk_retries},
        {"source_failovers", report.source_failovers},
        {"job_resubmissions", report.job_resubmissions},
        {"throttle_yields", report.throttle_yields},
        {"partitions_requeued_unmerged", report.partitions_requeued_unmerged},
        {"committed_epoch", report.committed_epoch}};
    const std::map<std::string, uint64_t> charges = {
        {"random_reads", after.random_reads - before.random_reads},
        {"sequential_chunks",
         after.sequential_chunks - before.sequential_chunks},
        {"bytes_sequential", after.bytes_sequential - before.bytes_sequential},
        {"writes", after.writes - before.writes},
        {"bytes_written", after.bytes_written - before.bytes_written},
        {"network_messages", after.network_messages - before.network_messages},
        {"network_bytes", after.network_bytes - before.network_bytes},
        {"service_ops", after.service_us.count - before.service_us.count},
        {"service_us", after.service_us.sum - before.service_us.sum}};
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
