// Streaming ingest (ISSUE 10): the per-node op-log, epoch-batched index
// merges, and snapshot-consistent reads. The load-bearing properties:
//
//   - StreamAppend only works on a sealed file, assigns globally monotone
//     LSNs, and stages records in epoch delta buckets that seal by
//     threshold or on demand;
//   - a pinned SnapshotView returns bit-identical answers at EVERY merge
//     progress — before, between, and after partition folds — and never
//     sees records appended after the pin;
//   - the min-active-snapshot merge gate defers (never skips) epochs still
//     visible to a pin, and releases when the pin dies;
//   - threaded and async engines agree on snapshot reads mid-merge;
//   - injected device faults make appends and merges retry without ever
//     double-applying a record (charge-then-fold exactly-once);
//   - the LogMerger drains backlogs through the scheduler's kMaintenance
//     class, on demand and as a background pump, on every executor, with
//     the exact device charges of one replay read and one replicated write
//     per non-empty partition, and the pump seals a quiet stream's epoch;
//   - the Scrubber skips (and reports) partitions with unmerged tails; the
//     Rebalancer re-queues them and aborts when the tail never drains;
//   - ingest counters flow into MetricsSnapshot.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ingest/log_merger.h"
#include "ingest/snapshot_view.h"
#include "ingest/streaming_file.h"
#include "io/key_codec.h"
#include "io/rebalancer.h"
#include "io/record.h"
#include "io/scrubber.h"
#include "rede/async_executor.h"
#include "rede/builtin_derefs.h"
#include "rede/metrics.h"
#include "rede/partitioned_executor.h"
#include "rede/smpe_executor.h"
#include "sched/scheduler.h"
#include "sim/cluster.h"
#include "inline_read_check.h"

namespace lakeharbor::ingest {
namespace {

constexpr uint32_t kPartitions = 4;

IngestOptions SmallEpochs() {
  IngestOptions options;
  options.seal_epoch_records = 8;
  options.log_page_bytes = 64;
  return options;
}

std::string Row(int i, const std::string& tag) {
  return std::to_string(i) + "|" + tag;
}

/// A sealed StreamingFile preloaded with kLoaded records (keys 0..59),
/// ready to stream into.
struct StreamLab {
  static constexpr int kLoaded = 60;

  explicit StreamLab(IngestOptions options = SmallEpochs(),
                     uint32_t nodes = 4, uint32_t rf = 2)
      : cluster(sim::ClusterOptions::ForNodes(nodes)) {
    file = std::make_shared<StreamingFile>(
        "claims", std::make_shared<io::HashPartitioner>(kPartitions),
        &cluster, options);
    file->SetReplicationFactor(rf);
    for (int i = 0; i < kLoaded; ++i) {
      std::string key = io::EncodeInt64Key(i);
      LH_CHECK(file->Append(key, key, io::Record(Row(i, "loaded"))).ok());
    }
    file->Seal();
  }

  StatusOr<Lsn> Stream(int i, const std::string& tag,
                       rede::ExecMetricsCounters* metrics = nullptr) {
    std::string key = io::EncodeInt64Key(i);
    return file->StreamAppend(key, key, io::Record(Row(i, tag)), metrics);
  }

  /// Canonical full-file contents at `snapshot` (key-ordered scan of every
  /// partition; rows are unique strings, so a multiset is a full state
  /// fingerprint).
  std::multiset<std::string> ScanAllAt(Lsn snapshot) {
    std::multiset<std::string> rows;
    for (uint32_t p = 0; p < kPartitions; ++p) {
      LH_CHECK(file->ScanPartitionKeyedAt(
                       snapshot, /*compute_node=*/0, p,
                       [&](const std::string&, const io::Record& r) {
                         rows.insert(r.bytes());
                         return true;
                       })
                   .ok());
    }
    return rows;
  }

  std::multiset<std::string> ScanView(SnapshotView* view) {
    std::multiset<std::string> rows;
    for (uint32_t p = 0; p < kPartitions; ++p) {
      LH_CHECK(view->ScanPartition(/*compute_node=*/0, p,
                                   [&](const io::Record& r) {
                                     rows.insert(r.bytes());
                                     return true;
                                   })
                   .ok());
    }
    return rows;
  }

  /// Fold and finish every epoch the gate admits. Returns epochs merged.
  uint64_t DrainManually() {
    uint64_t merged = 0;
    while (auto batch = file->NextUnmergedEpoch()) {
      if (!file->CanFold(*batch)) break;
      for (uint32_t p = 0; p < kPartitions; ++p) {
        file->FoldBucket(batch, p);
      }
      LH_CHECK(file->FinishEpochMerge(batch).ok());
      ++merged;
    }
    return merged;
  }

  sim::Cluster cluster;
  std::shared_ptr<StreamingFile> file;
};

// -------------------------------------------------- append fundamentals

TEST(StreamingIngest, AppendRequiresSealAndAssignsMonotoneLsns) {
  sim::Cluster cluster(sim::ClusterOptions::ForNodes(2));
  StreamingFile unsealed("fresh",
                         std::make_shared<io::HashPartitioner>(kPartitions),
                         &cluster, SmallEpochs());
  std::string key = io::EncodeInt64Key(1);
  auto rejected = unsealed.StreamAppend(key, key, io::Record(Row(1, "x")));
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsAborted()) << rejected.status().ToString();

  StreamLab lab;
  Lsn last = 0;
  for (int i = 60; i < 70; ++i) {
    auto lsn = lab.Stream(i, "s");
    ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
    EXPECT_GT(*lsn, last);
    last = *lsn;
  }
  EXPECT_EQ(lab.file->tail_lsn(), last);
  EXPECT_EQ(lab.file->merged_lsn(), 0u);
  EXPECT_EQ(lab.file->num_records(),
            static_cast<uint64_t>(StreamLab::kLoaded) + 10);

  // At least one partition carries unmerged tail records.
  bool any_tail = false;
  for (uint32_t p = 0; p < kPartitions; ++p) {
    any_tail = any_tail || lab.file->PartitionHasUnmergedTail(p);
  }
  EXPECT_TRUE(any_tail);
  // A frozen PartitionedFile never does — the default answer.
  io::PartitionedFile frozen("frozen",
                             std::make_shared<io::HashPartitioner>(2),
                             &lab.cluster);
  EXPECT_FALSE(frozen.PartitionHasUnmergedTail(0));
  // Streaming answers must never enter the executor's record cache.
  EXPECT_FALSE(lab.file->CacheableReads());
}

TEST(StreamingIngest, LatestReadsSeeTailAndKeepPerKeyLsnOrder) {
  StreamLab lab;
  // A duplicate of a LOADED key: the tree copy must come back before the
  // tail copy (merged LSNs are strictly older — "tree then tail" IS LSN
  // order).
  ASSERT_TRUE(lab.Stream(5, "dup").ok());
  ASSERT_TRUE(lab.Stream(60, "new").ok());

  std::string key5 = io::EncodeInt64Key(5);
  std::vector<io::Record> out;
  ASSERT_TRUE(lab.file->Get(0, io::Pointer(key5, key5), &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].bytes(), Row(5, "loaded"));
  EXPECT_EQ(out[1].bytes(), Row(5, "dup"));

  std::string key60 = io::EncodeInt64Key(60);
  out.clear();
  ASSERT_TRUE(lab.file->Get(0, io::Pointer(key60, key60), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].bytes(), Row(60, "new"));

  // Batched read on the tail key's partition agrees with the point read.
  const uint32_t p60 = lab.file->partitioner().PartitionOf(key60);
  std::vector<std::vector<io::Record>> buckets;
  ASSERT_TRUE(lab.file
                  ->GetBatchInPartitionOnReplica(0, p60, 0, {key60}, &buckets)
                  .ok());
  ASSERT_EQ(buckets.size(), 1u);
  ASSERT_EQ(buckets[0].size(), 1u);
  EXPECT_EQ(buckets[0][0].bytes(), Row(60, "new"));
}

/// A blocking streaming read is the async read with a null completion
/// queue, at the latest LSN and at a snapshot pin alike: `done` fires before
/// the call returns. Submitted on a queue, the same read ends with the
/// blocking read's tree-plus-tail records, charges and counters.
class InPlaceStreamingReads : public ::testing::TestWithParam<bool> {};

TEST_P(InPlaceStreamingReads, LatestAndPinnedReadsMatchBlocking) {
  using inline_read_check::AppendPayloads;
  using inline_read_check::ExpectInPlaceReadMatchesBlocking;
  using inline_read_check::RunOnQueue;
  using inline_read_check::RunWithoutQueue;
  StreamLab lab;
  lab.cluster.SetTimingEnabled(GetParam());
  ASSERT_TRUE(lab.Stream(5, "before-pin").ok());
  auto view = MakeSnapshotView(lab.file);
  ASSERT_TRUE(lab.Stream(5, "after-pin").ok());

  const std::string key = io::EncodeInt64Key(5);
  const uint32_t p = lab.file->partitioner().PartitionOf(key);
  const sim::NodeId storage = lab.file->NodeOfReplica(p, 0);
  const sim::NodeId reader = (storage + 1) % lab.cluster.num_nodes();
  std::vector<std::string> keys;
  for (int i = 0; i < StreamLab::kLoaded; ++i) {
    if (lab.file->partitioner().PartitionOf(io::EncodeInt64Key(i)) == p) {
      keys.push_back(io::EncodeInt64Key(i));
    }
  }

  // The latest-LSN overrides and the snapshot view both reach the
  // snapshot-parameterized reads of the base file, which keeps the stats.
  for (io::File* reads : {static_cast<io::File*>(lab.file.get()),
                          static_cast<io::File*>(view.get())}) {
    SCOPED_TRACE(reads == view.get() ? "pinned" : "latest");
    ExpectInPlaceReadMatchesBlocking(
        lab.cluster, *lab.file, storage,
        [&](std::vector<std::string>* payloads) {
          std::vector<io::Record> out;
          Status s = reads->GetInPartitionOnReplica(reader, p, 0, key, &out);
          AppendPayloads(out, payloads);
          return s;
        },
        [&](std::vector<std::string>* payloads) {
          std::vector<io::Record> out;
          Status s = RunWithoutQueue([&](io::File::AsyncReadDone done) {
            reads->GetInPartitionOnReplicaAsync(reader, p, 0, key, &out,
                                                nullptr, std::move(done));
          });
          AppendPayloads(out, payloads);
          return s;
        });
    ExpectInPlaceReadMatchesBlocking(
        lab.cluster, *lab.file, storage,
        [&](std::vector<std::string>* payloads) {
          std::vector<std::vector<io::Record>> out;
          Status s =
              reads->GetBatchInPartitionOnReplica(reader, p, 0, keys, &out);
          for (const auto& bucket : out) AppendPayloads(bucket, payloads);
          return s;
        },
        [&](std::vector<std::string>* payloads) {
          std::vector<std::vector<io::Record>> out;
          Status s = RunWithoutQueue([&](io::File::AsyncReadDone done) {
            reads->GetBatchInPartitionOnReplicaAsync(
                reader, p, 0, keys, &out, nullptr, std::move(done));
          });
          for (const auto& bucket : out) AppendPayloads(bucket, payloads);
          return s;
        });
    // The same reads submitted on a queue this thread drains.
    ExpectInPlaceReadMatchesBlocking(
        lab.cluster, *lab.file, storage,
        [&](std::vector<std::string>* payloads) {
          std::vector<io::Record> out;
          Status s = reads->GetInPartitionOnReplica(reader, p, 0, key, &out);
          AppendPayloads(out, payloads);
          return s;
        },
        [&](std::vector<std::string>* payloads) {
          std::vector<io::Record> out;
          Status s = RunOnQueue(
              [&](sim::CompletionQueue* cq, io::File::AsyncReadDone done) {
                reads->GetInPartitionOnReplicaAsync(reader, p, 0, key, &out,
                                                    cq, std::move(done));
              });
          AppendPayloads(out, payloads);
          return s;
        });
    ExpectInPlaceReadMatchesBlocking(
        lab.cluster, *lab.file, storage,
        [&](std::vector<std::string>* payloads) {
          std::vector<std::vector<io::Record>> out;
          Status s =
              reads->GetBatchInPartitionOnReplica(reader, p, 0, keys, &out);
          for (const auto& bucket : out) AppendPayloads(bucket, payloads);
          return s;
        },
        [&](std::vector<std::string>* payloads) {
          std::vector<std::vector<io::Record>> out;
          Status s = RunOnQueue(
              [&](sim::CompletionQueue* cq, io::File::AsyncReadDone done) {
                reads->GetBatchInPartitionOnReplicaAsync(
                    reader, p, 0, keys, &out, cq, std::move(done));
              });
          for (const auto& bucket : out) AppendPayloads(bucket, payloads);
          return s;
        });
  }
  // The pin saw one tail copy of key 5, the latest read both.
  std::vector<io::Record> pinned;
  std::vector<io::Record> latest;
  ASSERT_TRUE(view->GetInPartitionOnReplica(reader, p, 0, key, &pinned).ok());
  ASSERT_TRUE(
      lab.file->GetInPartitionOnReplica(reader, p, 0, key, &latest).ok());
  EXPECT_EQ(pinned.size(), 2u);
  EXPECT_EQ(latest.size(), 3u);
}

INSTANTIATE_TEST_SUITE_P(Timing, InPlaceStreamingReads, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "timed" : "untimed";
                         });

TEST(StreamingIngest, ThresholdsSealEpochsAndManualSealFlushesTheRest) {
  IngestOptions options = SmallEpochs();
  options.log_page_bytes = 16;  // pages are per-PARTITION segments
  StreamLab lab(options);  // seals every 8 records
  for (int i = 60; i < 80; ++i) {
    ASSERT_TRUE(lab.Stream(i, "s").ok());
  }
  // 20 streamed at threshold 8: two epochs sealed, four records open.
  IngestFileStats stats = lab.file->ingest_stats();
  EXPECT_EQ(stats.epochs_sealed, 2u);
  EXPECT_EQ(stats.open_epoch_records, 4u);
  EXPECT_EQ(stats.records_appended, 20u);
  EXPECT_EQ(stats.backlog_records, 16u);

  auto sealed = lab.file->SealOpenEpoch();
  ASSERT_TRUE(sealed.has_value());
  EXPECT_EQ(lab.file->backlog_epochs(), 3u);
  EXPECT_FALSE(lab.file->SealOpenEpoch().has_value());  // nothing open

  // The op-log group-commit pages were charged as real replicated writes.
  EXPECT_GT(lab.file->ingest_stats().log_pages_flushed, 0u);
  ASSERT_TRUE(lab.file->FlushOpLog().ok());
}

// ------------------------------------------- snapshot isolation and gate

TEST(StreamingIngest, SnapshotIsolationHoldsAtEveryMergeStep) {
  StreamLab lab;
  for (int i = 60; i < 80; ++i) {
    ASSERT_TRUE(lab.Stream(i, "s1").ok());
  }
  lab.file->SealOpenEpoch();
  const uint64_t pre_pin_epochs = lab.file->backlog_epochs();
  ASSERT_EQ(pre_pin_epochs, 3u);

  auto view = MakeSnapshotView(lab.file);
  ASSERT_EQ(view->snapshot_lsn(), lab.file->tail_lsn());
  const std::multiset<std::string> expected = lab.ScanView(view.get());
  ASSERT_EQ(expected.size(), static_cast<size_t>(StreamLab::kLoaded) + 20);

  // Post-pin appends exist in the file but must stay invisible to the view.
  for (int i = 80; i < 90; ++i) {
    ASSERT_TRUE(lab.Stream(i, "s2").ok());
  }
  lab.file->SealOpenEpoch();
  EXPECT_EQ(lab.ScanView(view.get()), expected);

  // Step the merge one PARTITION fold at a time: the view's answer must be
  // bit-identical at every intermediate state, including half-folded
  // epochs.
  uint64_t merged = 0;
  while (auto batch = lab.file->NextUnmergedEpoch()) {
    if (!lab.file->CanFold(*batch)) break;
    for (uint32_t p = 0; p < kPartitions; ++p) {
      lab.file->FoldBucket(batch, p);
      EXPECT_EQ(lab.ScanView(view.get()), expected)
          << "epoch " << batch->epoch << " after folding partition " << p;
    }
    ASSERT_TRUE(lab.file->FinishEpochMerge(batch).ok());
    ++merged;
    EXPECT_EQ(lab.ScanView(view.get()), expected)
        << "after finishing epoch " << batch->epoch;
  }
  EXPECT_EQ(merged, pre_pin_epochs);

  // The post-pin epochs (10 records at threshold 8: one threshold seal
  // plus one manual) are GATED, not skipped: they stay in the backlog
  // until the pin dies.
  auto gated = lab.file->NextUnmergedEpoch();
  ASSERT_NE(gated, nullptr);
  EXPECT_GT(gated->max_lsn, view->snapshot_lsn());
  EXPECT_FALSE(lab.file->CanFold(*gated));
  EXPECT_EQ(lab.file->backlog_epochs(), 2u);

  view.reset();  // RAII unpin releases the gate
  EXPECT_TRUE(lab.file->CanFold(*gated));
  EXPECT_EQ(lab.DrainManually(), 2u);
  EXPECT_EQ(lab.file->merged_lsn(), lab.file->tail_lsn());
  EXPECT_EQ(lab.file->backlog_epochs(), 0u);

  // Fully merged, the latest view holds everything exactly once.
  EXPECT_EQ(lab.ScanAllAt(kLsnLatest).size(),
            static_cast<size_t>(StreamLab::kLoaded) + 30);
}

TEST(StreamingIngest, FinishEpochMergeEnforcesFifoAndFullFolds) {
  StreamLab lab;
  for (int i = 60; i < 76; ++i) {
    ASSERT_TRUE(lab.Stream(i, "s").ok());
  }
  ASSERT_EQ(lab.file->backlog_epochs(), 2u);
  auto front = lab.file->NextUnmergedEpoch();
  ASSERT_NE(front, nullptr);

  // Finishing a non-front epoch is an InvalidArgument, not a crash: grab
  // the SECOND epoch by merging the first... first verify FIFO by folding
  // and finishing in order, then try to re-finish the popped batch.
  for (uint32_t p = 0; p < kPartitions; ++p) lab.file->FoldBucket(front, p);
  // Folding twice is idempotent — the resume path of a resubmitted job.
  index::FoldResult again = lab.file->FoldBucket(front, 0);
  EXPECT_EQ(again.records, 0u);
  EXPECT_EQ(again.bytes, 0u);
  ASSERT_TRUE(lab.file->FinishEpochMerge(front).ok());
  Status refinish = lab.file->FinishEpochMerge(front);
  EXPECT_TRUE(refinish.IsInvalidArgument()) << refinish.ToString();
  EXPECT_EQ(lab.DrainManually(), 1u);
}

// ------------------------------------------- engine parity mid-merge

TEST(StreamingIngest, ThreadedAndAsyncEnginesAgreeOnSnapshotReadsMidMerge) {
  StreamLab lab;
  for (int i = 55; i < 80; ++i) {  // overlaps loaded keys 55..59: duplicates
    ASSERT_TRUE(lab.Stream(i, "s").ok());
  }
  lab.file->SealOpenEpoch();

  // Freeze the file mid-merge: fold HALF the partitions of the first epoch
  // and leave the rest as delta tail.
  auto batch = lab.file->NextUnmergedEpoch();
  ASSERT_NE(batch, nullptr);
  ASSERT_TRUE(lab.file->CanFold(*batch));
  lab.file->FoldBucket(batch, 0);
  lab.file->FoldBucket(batch, 1);

  auto view = MakeSnapshotView(lab.file);
  rede::SmpeOptions options;
  options.threads_per_node = 2;
  rede::SmpeExecutor threaded(&lab.cluster, options);
  rede::AsyncExecutor async(&lab.cluster, options);

  for (int i = 0; i < 80; i += 3) {
    std::string key = io::EncodeInt64Key(i);
    auto job = rede::JobBuilder("snap-pk-" + std::to_string(i))
                   .Initial(rede::Tuple::Point(io::Pointer(key, key)))
                   .Add(rede::MakePointDereferencer("deref-claims", view))
                   .Build();
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    std::multiset<std::string> threaded_rows;
    std::multiset<std::string> async_rows;
    auto tr = threaded.Execute(*job, [&](const rede::Tuple& t) {
      for (const io::Record& r : t.records) threaded_rows.insert(r.bytes());
    });
    ASSERT_TRUE(tr.ok()) << tr.status().ToString();
    auto ar = async.Execute(*job, [&](const rede::Tuple& t) {
      for (const io::Record& r : t.records) async_rows.insert(r.bytes());
    });
    ASSERT_TRUE(ar.ok()) << ar.status().ToString();
    EXPECT_EQ(threaded_rows, async_rows) << "key " << i;
    // Checksum every delivered record: mid-merge reads still go through
    // the full verification envelope.
    const size_t expected =
        (i < StreamLab::kLoaded ? 1u : 0u) + (i >= 55 ? 1u : 0u);
    EXPECT_EQ(threaded_rows.size(), expected) << "key " << i;
  }
}

// ------------------------------------------- fault-injected exactly-once

TEST(StreamingIngest, FaultInjectedAppendsRetryWithoutDuplicates) {
  IngestOptions options = SmallEpochs();
  options.log_page_bytes = 16;  // a few appends per op-log flush
  StreamLab lab(options);
  // Every second disk op fails: with several flushes per partition the
  // fault stream is guaranteed to hit op-log writes.
  for (uint32_t n = 0; n < lab.cluster.num_nodes(); ++n) {
    lab.cluster.node(n).disk().InjectFaultEvery(2);
  }
  int failures = 0;
  for (int i = 60; i < 110; ++i) {
    // A failed append applied nothing; retrying the same record re-arms
    // the identical op-log flush — crash-free by construction.
    StatusOr<Lsn> lsn = lab.Stream(i, "f");
    for (int attempt = 0; !lsn.ok() && attempt < 8; ++attempt) {
      ++failures;
      lsn = lab.Stream(i, "f");
    }
    ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
  }
  EXPECT_GT(failures, 0);  // the fault stream really fired mid-append
  for (uint32_t n = 0; n < lab.cluster.num_nodes(); ++n) {
    lab.cluster.node(n).disk().ClearFault();
  }
  // Exactly one copy of every record, no gaps, no double-applies.
  IngestFileStats stats = lab.file->ingest_stats();
  EXPECT_EQ(stats.records_appended, 50u);
  lab.file->SealOpenEpoch();
  lab.DrainManually();
  std::multiset<std::string> rows = lab.ScanAllAt(kLsnLatest);
  EXPECT_EQ(rows.size(), static_cast<size_t>(StreamLab::kLoaded) + 50);
  for (int i = 60; i < 110; ++i) {
    EXPECT_EQ(rows.count(Row(i, "f")), 1u) << i;
  }
}

// ---------------------------------------------- the merger on every engine

/// Device and network totals of merging streamed rows [first, last) with
/// SmallEpochs(): per non-empty (epoch, partition), one replay read of
/// max(bytes, 64) at the primary, one write of that size per replica, and
/// one message per replica other than the primary. Assumes `first` opened
/// a fresh epoch.
sim::ResourceTotals ExpectedMergeCharges(const StreamLab& lab, int first,
                                         int last, const std::string& tag) {
  const uint64_t per_epoch = SmallEpochs().seal_epoch_records;
  std::vector<std::vector<uint64_t>> bytes;  // [epoch][partition]
  for (int i = first; i < last; ++i) {
    const size_t epoch = static_cast<size_t>(i - first) / per_epoch;
    if (bytes.size() <= epoch) bytes.emplace_back(kPartitions, 0);
    const uint32_t p =
        lab.file->partitioner().PartitionOf(io::EncodeInt64Key(i));
    bytes[epoch][p] += Row(i, tag).size();
  }
  sim::ResourceTotals expected;
  for (const std::vector<uint64_t>& epoch : bytes) {
    for (uint32_t p = 0; p < kPartitions; ++p) {
      if (epoch[p] == 0) continue;
      const uint64_t charged = std::max<uint64_t>(epoch[p], 64);
      expected.bytes_sequential += charged;
      for (sim::NodeId replica : lab.file->placement().ReplicaNodes(p)) {
        ++expected.writes;
        expected.bytes_written += charged;
        if (replica != lab.file->NodeOfPartition(p)) {
          ++expected.network_messages;
        }
      }
    }
  }
  return expected;
}

/// The merger's broadcast job on each executor behind the scheduler: the
/// threaded SMPE engine, the async engine, and the partitioned executor.
class StreamingMerge : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<rede::Executor> MakeExecutor(sim::Cluster* cluster) {
    rede::SmpeOptions smpe;
    smpe.threads_per_node = 2;
    if (GetParam() == "threaded") {
      return std::make_unique<rede::SmpeExecutor>(cluster, smpe);
    }
    if (GetParam() == "async") {
      return std::make_unique<rede::AsyncExecutor>(cluster, smpe);
    }
    return std::make_unique<rede::PartitionedExecutor>(cluster);
  }
};

INSTANTIATE_TEST_SUITE_P(
    Executors, StreamingMerge,
    ::testing::Values("threaded", "async", "partitioned"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST_P(StreamingMerge, FaultInjectedMergesResubmitAndFoldExactlyOnce) {
  StreamLab lab;
  for (int i = 60; i < 92; ++i) {
    ASSERT_TRUE(lab.Stream(i, "m").ok());
  }
  lab.file->SealOpenEpoch();
  const uint64_t backlog = lab.file->backlog_epochs();
  ASSERT_GE(backlog, 4u);
  const std::multiset<std::string> expected = lab.ScanAllAt(kLsnLatest);

  std::unique_ptr<rede::Executor> executor = MakeExecutor(&lab.cluster);
  sched::JobScheduler scheduler(executor.get(), sched::SchedulerOptions{});

  for (uint32_t n = 0; n < lab.cluster.num_nodes(); ++n) {
    lab.cluster.node(n).disk().InjectFaultEvery(4);
  }
  MergeOptions options;
  options.retry.max_retries = 100;  // outlive the fault storm
  options.retry.backoff_initial_us = 1;
  options.retry.backoff_max_us = 50;
  LogMerger merger(&lab.cluster, &scheduler, options);
  merger.RegisterFile(lab.file.get());
  auto report = merger.DrainBacklog();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (uint32_t n = 0; n < lab.cluster.num_nodes(); ++n) {
    lab.cluster.node(n).disk().ClearFault();
  }
  EXPECT_EQ(report->epochs_merged, backlog);
  EXPECT_EQ(report->partitions_folded, backlog * kPartitions);
  EXPECT_EQ(report->records_folded, 32u);  // every record folded ONCE
  EXPECT_GT(report->charge_retries, 0u);   // the faults really hit
  EXPECT_EQ(lab.file->backlog_epochs(), 0u);
  EXPECT_EQ(lab.file->ingest_stats().epochs_merged, backlog);
  EXPECT_EQ(lab.file->merged_lsn(), lab.file->tail_lsn());
  // The folded structure answers exactly what the pre-merge tail did.
  EXPECT_EQ(lab.ScanAllAt(kLsnLatest), expected);
}

TEST_P(StreamingMerge, MergerDrainsBacklogThroughSchedulerMaintenanceClass) {
  StreamLab lab;
  for (int i = 60; i < 84; ++i) {
    ASSERT_TRUE(lab.Stream(i, "m").ok());
  }
  lab.file->SealOpenEpoch();
  const std::multiset<std::string> expected = lab.ScanAllAt(kLsnLatest);
  const uint64_t backlog = lab.file->backlog_epochs();
  ASSERT_EQ(backlog, 3u);

  std::unique_ptr<rede::Executor> executor = MakeExecutor(&lab.cluster);
  sched::JobScheduler scheduler(executor.get(), sched::SchedulerOptions{});
  LogMerger merger(&lab.cluster, &scheduler, MergeOptions{});
  merger.RegisterFile(lab.file.get());

  const sim::ResourceTotals before = lab.cluster.TotalStats();
  auto report = merger.DrainBacklog();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const sim::ResourceTotals after = lab.cluster.TotalStats();
  EXPECT_EQ(report->epochs_merged, backlog);
  EXPECT_EQ(report->records_folded, 24u);
  EXPECT_EQ(report->partitions_folded, backlog * kPartitions);
  EXPECT_GT(report->bytes_folded, 0u);
  EXPECT_EQ(lab.file->backlog_epochs(), 0u);
  EXPECT_EQ(lab.file->merged_lsn(), lab.file->tail_lsn());
  EXPECT_EQ(lab.ScanAllAt(kLsnLatest), expected);

  // Same charges as a serial merge, now spread over the nodes: the
  // broadcast seed itself sends no message.
  const sim::ResourceTotals charges =
      ExpectedMergeCharges(lab, 60, 84, "m");
  EXPECT_EQ(after.writes - before.writes, charges.writes);
  EXPECT_EQ(after.bytes_written - before.bytes_written, charges.bytes_written);
  EXPECT_EQ(after.bytes_sequential - before.bytes_sequential,
            charges.bytes_sequential);
  EXPECT_EQ(after.network_messages - before.network_messages,
            charges.network_messages);
  EXPECT_GT(charges.network_messages, 0u);  // rf=2: remote replica writes

  // An empty drain is a clean no-op.
  auto empty = merger.DrainBacklog();
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->epochs_merged, 0u);
}

TEST_P(StreamingMerge, PumpFoldsWhileAppendsAndPinnedReadsRace) {
  // Node tasks fold different partitions at once while an appender seals
  // new epochs and a reader pins snapshots: every pinned view keeps its
  // answer, and once appends stop the pump merges every record once.
  constexpr int kFirst = 60;
  constexpr int kLast = 220;
  StreamLab lab;
  std::unique_ptr<rede::Executor> executor = MakeExecutor(&lab.cluster);
  sched::JobScheduler scheduler(executor.get(), sched::SchedulerOptions{});
  LogMerger merger(&lab.cluster, &scheduler, MergeOptions{});
  merger.RegisterFile(lab.file.get());
  ASSERT_TRUE(merger.Start().ok());

  std::atomic<bool> appended{false};
  std::thread appender([&] {
    for (int i = kFirst; i < kLast; ++i) {
      LH_CHECK(lab.Stream(i, "r").ok());
      if (i % 8 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    appended.store(true);
  });
  int pins = 0;
  while (!appended.load()) {
    auto view = MakeSnapshotView(lab.file);
    const std::multiset<std::string> pinned = lab.ScanView(view.get());
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    EXPECT_EQ(lab.ScanView(view.get()), pinned) << "pin " << pins;
    ++pins;
  }
  appender.join();
  lab.file->SealOpenEpoch();
  for (int i = 0; i < 5000 && lab.file->merged_lsn() < lab.file->tail_lsn();
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  merger.Stop();
  ASSERT_FALSE(merger.cancelled()) << merger.cancel_cause().ToString();
  EXPECT_GT(pins, 0);
  EXPECT_EQ(lab.file->backlog_epochs(), 0u);
  EXPECT_EQ(lab.file->merged_lsn(), lab.file->tail_lsn());
  EXPECT_EQ(merger.progress().records_folded.load(),
            static_cast<uint64_t>(kLast - kFirst));
  const std::multiset<std::string> rows = lab.ScanAllAt(kLsnLatest);
  EXPECT_EQ(rows.size(),
            static_cast<size_t>(StreamLab::kLoaded + kLast - kFirst));
  for (int i = kFirst; i < kLast; ++i) {
    EXPECT_EQ(rows.count(Row(i, "r")), 1u) << i;
  }
}

// ------------------------------------------- the merger end to end

TEST(StreamingIngest, BackgroundPumpWaitsOutPinThenCatchesUp) {
  StreamLab lab;
  // Pin FIRST: every epoch sealed afterwards is gated behind the pin.
  auto view = MakeSnapshotView(lab.file);
  const std::multiset<std::string> expected = lab.ScanView(view.get());
  for (int i = 60; i < 76; ++i) {
    ASSERT_TRUE(lab.Stream(i, "p").ok());
  }
  lab.file->SealOpenEpoch();
  const uint64_t backlog = lab.file->backlog_epochs();
  ASSERT_EQ(backlog, 2u);

  rede::SmpeOptions smpe;
  smpe.threads_per_node = 2;
  rede::SmpeExecutor executor(&lab.cluster, smpe);
  sched::JobScheduler scheduler(&executor, sched::SchedulerOptions{});
  MergeOptions options;
  options.throttle_bytes_per_sec = 1 << 20;
  LogMerger merger(&lab.cluster, &scheduler, options);
  merger.RegisterFile(lab.file.get());
  ASSERT_TRUE(merger.Start().ok());
  EXPECT_TRUE(merger.running());

  // The pump spins against the gate without merging anything, and the
  // pinned view keeps answering bit-identically while it does.
  for (int i = 0; i < 20; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(lab.file->backlog_epochs(), backlog);
  }
  EXPECT_GT(merger.progress().gate_deferrals.load(), 0u);
  EXPECT_EQ(scheduler.stats().submitted, 0u);  // a gated poll submits nothing
  EXPECT_EQ(lab.ScanView(view.get()), expected);

  // Unpin: the pump drains the backlog on its own.
  view.reset();
  for (int i = 0; i < 5000 && lab.file->backlog_epochs() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  merger.Stop();
  EXPECT_FALSE(merger.running());
  ASSERT_FALSE(merger.cancelled()) << merger.cancel_cause().ToString();
  EXPECT_EQ(lab.file->backlog_epochs(), 0u);
  EXPECT_EQ(lab.file->merged_lsn(), lab.file->tail_lsn());
  EXPECT_EQ(lab.ScanAllAt(kLsnLatest).size(),
            static_cast<size_t>(StreamLab::kLoaded) + 16);
}

TEST(StreamingIngest, PumpSealsAQuietStreamsAgedEpoch) {
  IngestOptions options = SmallEpochs();
  options.seal_epoch_age_us = 2000;
  StreamLab lab(options);
  // Fewer rows than seal_epoch_records, then silence: no append ever
  // checks the age again, and nobody calls SealOpenEpoch.
  for (int i = 60; i < 63; ++i) {
    ASSERT_TRUE(lab.Stream(i, "q").ok());
  }
  ASSERT_EQ(lab.file->backlog_epochs(), 0u);
  ASSERT_EQ(lab.file->ingest_stats().open_epoch_records, 3u);

  rede::SmpeOptions smpe;
  smpe.threads_per_node = 2;
  rede::SmpeExecutor executor(&lab.cluster, smpe);
  sched::JobScheduler scheduler(&executor, sched::SchedulerOptions{});
  LogMerger merger(&lab.cluster, &scheduler, MergeOptions{});
  merger.RegisterFile(lab.file.get());
  ASSERT_TRUE(merger.Start().ok());
  for (int i = 0; i < 5000 && lab.file->merged_lsn() < lab.file->tail_lsn();
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  merger.Stop();
  ASSERT_FALSE(merger.cancelled()) << merger.cancel_cause().ToString();
  EXPECT_EQ(lab.file->merged_lsn(), lab.file->tail_lsn());
  const IngestFileStats stats = lab.file->ingest_stats();
  EXPECT_EQ(stats.epochs_sealed, 1u);
  EXPECT_EQ(stats.open_epoch_records, 0u);
  EXPECT_EQ(merger.progress().records_folded.load(), 3u);
}

// ------------------------------------- maintenance-loop coordination

TEST(StreamingIngest, ScrubberSkipsUnmergedTailThenCatchesUpAfterDrain) {
  StreamLab lab;
  for (int i = 60; i < 100; ++i) {  // spread tail over every partition
    ASSERT_TRUE(lab.Stream(i, "s").ok());
  }
  uint32_t dirty = 0;
  for (uint32_t p = 0; p < kPartitions; ++p) {
    if (lab.file->PartitionHasUnmergedTail(p)) ++dirty;
  }
  ASSERT_EQ(dirty, kPartitions);

  rede::SmpeOptions smpe;
  smpe.threads_per_node = 2;
  rede::SmpeExecutor executor(&lab.cluster, smpe);
  sched::JobScheduler scheduler(&executor, sched::SchedulerOptions{});
  io::Scrubber scrubber(&lab.cluster, &scheduler, io::ScrubOptions{});
  scrubber.RegisterFile(lab.file.get());

  auto first = scrubber.ScrubAll();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->partitions_skipped_unmerged, kPartitions);
  EXPECT_EQ(first->partitions_scrubbed, 0u);
  EXPECT_EQ(first->replicas_verified, 0u);

  lab.file->SealOpenEpoch();
  lab.DrainManually();
  auto second = scrubber.ScrubAll();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->partitions_skipped_unmerged, 0u);
  EXPECT_EQ(second->partitions_scrubbed, kPartitions);
  EXPECT_GT(second->replicas_verified, 0u);
}

TEST(StreamingIngest, RebalancerRequeuesUnmergedTailAndAbortsIfNeverDrained) {
  StreamLab lab(SmallEpochs(), /*nodes=*/3, /*rf=*/2);
  for (int i = 60; i < 100; ++i) {
    ASSERT_TRUE(lab.Stream(i, "r").ok());
  }
  rede::SmpeOptions smpe;
  smpe.threads_per_node = 2;
  rede::SmpeExecutor executor(&lab.cluster, smpe);
  sched::JobScheduler scheduler(&executor, sched::SchedulerOptions{});
  io::RebalanceOptions options;
  options.max_partition_attempts = 3;
  io::Rebalancer rebalancer(&lab.cluster, &scheduler, options);
  rebalancer.RegisterFile(lab.file.get());

  // The tail never drains (no merger running): the join's rebalance must
  // abort — deferring forever would wedge membership changes silently.
  auto join = rebalancer.AddNodeAndRebalance();
  ASSERT_FALSE(join.ok());
  EXPECT_TRUE(join.status().IsAborted()) << join.status().ToString();
  EXPECT_GT(rebalancer.progress().partitions_requeued_unmerged.load(), 0u);

  // Drain the backlog, then rebalance onto the (already joined) node.
  lab.file->SealOpenEpoch();
  lab.DrainManually();
  const std::multiset<std::string> expected = lab.ScanAllAt(kLsnLatest);
  auto report = rebalancer.RebalanceToActiveMembers();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->partitions_requeued_unmerged, 0u);
  EXPECT_GT(report->partitions_moved, 0u);
  EXPECT_EQ(lab.ScanAllAt(kLsnLatest), expected);
}

// ---------------------------------------------------- metrics plumbing

TEST(StreamingIngest, IngestCountersFlowIntoMetricsSnapshot) {
  StreamLab lab;
  rede::ExecMetricsCounters counters;
  uint64_t bytes = 0;
  for (int i = 60; i < 70; ++i) {
    bytes += Row(i, "c").size();
    ASSERT_TRUE(lab.Stream(i, "c", &counters).ok());
  }
  lab.file->SealOpenEpoch(&counters);

  rede::MetricsSnapshot mid = rede::MetricsSnapshot::From(counters, 0.0);
  EXPECT_EQ(mid.records_appended, 10u);
  EXPECT_EQ(mid.bytes_appended, bytes);
  EXPECT_EQ(mid.epochs_sealed, 2u);  // one by threshold, one manual
  EXPECT_EQ(mid.epochs_merged, 0u);
  EXPECT_EQ(mid.merge_backlog, 2u);

  while (auto batch = lab.file->NextUnmergedEpoch()) {
    if (!lab.file->CanFold(*batch)) break;
    for (uint32_t p = 0; p < kPartitions; ++p) {
      lab.file->FoldBucket(batch, p);
    }
    ASSERT_TRUE(lab.file->FinishEpochMerge(batch, &counters).ok());
  }
  rede::MetricsSnapshot done = rede::MetricsSnapshot::From(counters, 0.0);
  EXPECT_EQ(done.epochs_merged, 2u);
  EXPECT_EQ(done.merge_backlog, 0u);

  // The per-partition breakdown adds up to the file totals.
  IngestFileStats stats = lab.file->ingest_stats();
  uint64_t per_partition = 0;
  for (const PartitionIngestStats& p : stats.partitions) {
    per_partition += p.records_appended;
  }
  EXPECT_EQ(per_partition, stats.records_appended);
  EXPECT_EQ(stats.records_appended, 10u);
}

}  // namespace
}  // namespace lakeharbor::ingest
