#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "io/catalog.h"
#include "io/key_codec.h"
#include "io/partitioned_file.h"
#include "sim/cluster.h"
#include "inline_read_check.h"

namespace lakeharbor::io {
namespace {

// ---------------------------------------------------------------- key codec

TEST(KeyCodec, Int64RoundTrip) {
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{123456789},
                    int64_t{-987654}, INT64_MAX, INT64_MIN}) {
    std::string key = EncodeInt64Key(v);
    EXPECT_EQ(key.size(), 16u);
    auto back = DecodeInt64Key(key);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
  }
}

TEST(KeyCodec, Int64OrderPreserving) {
  Random rng(5);
  for (int i = 0; i < 2000; ++i) {
    int64_t a = static_cast<int64_t>(rng.Next());
    int64_t b = static_cast<int64_t>(rng.Next());
    EXPECT_EQ(a < b, EncodeInt64Key(a) < EncodeInt64Key(b))
        << a << " vs " << b;
  }
}

TEST(KeyCodec, DoubleRoundTrip) {
  for (double v : {0.0, 1.5, -1.5, 1e-300, -1e300, 3.14159}) {
    auto back = DecodeDoubleKey(EncodeDoubleKey(v));
    ASSERT_TRUE(back.ok());
    EXPECT_DOUBLE_EQ(*back, v);
  }
}

TEST(KeyCodec, DoubleOrderPreserving) {
  Random rng(6);
  std::vector<double> values = {-1e9, -5.5, -1.0, -0.25, 0.0,
                                0.25, 1.0,  5.5,  1e9};
  for (int i = 0; i < 500; ++i) {
    values.push_back((rng.NextDouble() - 0.5) * 1e6);
  }
  for (size_t i = 0; i < values.size(); ++i) {
    for (size_t j = 0; j < values.size(); ++j) {
      if (values[i] < values[j]) {
        EXPECT_LT(EncodeDoubleKey(values[i]), EncodeDoubleKey(values[j]))
            << values[i] << " vs " << values[j];
      }
    }
  }
}

TEST(KeyCodec, DecodeRejectsGarbage) {
  EXPECT_FALSE(DecodeInt64Key("short").ok());
  EXPECT_FALSE(DecodeInt64Key("zzzzzzzzzzzzzzzz").ok());
  EXPECT_FALSE(DecodeDoubleKey("0123").ok());
}

TEST(KeyCodec, ComposeKeyOrders) {
  // Composite (a, b) order == lexicographic order of fixed-width parts.
  std::string k11 = ComposeKey(EncodeInt64Key(1), EncodeInt64Key(1));
  std::string k12 = ComposeKey(EncodeInt64Key(1), EncodeInt64Key(2));
  std::string k21 = ComposeKey(EncodeInt64Key(2), EncodeInt64Key(1));
  EXPECT_LT(k11, k12);
  EXPECT_LT(k12, k21);
}

// -------------------------------------------------------------- partitioner

TEST(HashPartitioner, DeterministicAndInRange) {
  HashPartitioner part(7);
  for (int i = 0; i < 100; ++i) {
    std::string key = StrFormat("key-%d", i);
    uint32_t p = part.PartitionOf(key);
    EXPECT_LT(p, 7u);
    EXPECT_EQ(p, part.PartitionOf(key));
  }
}

TEST(HashPartitioner, RoughlyBalanced) {
  HashPartitioner part(8);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 8000; ++i) {
    counts[part.PartitionOf(EncodeInt64Key(i))]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 700);  // expected 1000 each; allow wide slack
    EXPECT_LT(c, 1300);
  }
}

TEST(RangePartitioner, RoutesByBoundaries) {
  RangePartitioner part({"g", "p"});
  EXPECT_EQ(part.num_partitions(), 3u);
  EXPECT_EQ(part.PartitionOf("a"), 0u);
  EXPECT_EQ(part.PartitionOf("g"), 1u);  // boundary belongs right
  EXPECT_EQ(part.PartitionOf("m"), 1u);
  EXPECT_EQ(part.PartitionOf("p"), 2u);
  EXPECT_EQ(part.PartitionOf("z"), 2u);
}

TEST(RangePartitionerSample, QuantileBoundaries) {
  std::vector<std::string> sample;
  for (int i = 0; i < 100; ++i) sample.push_back(StrFormat("%03d", i));
  auto part = BuildRangePartitionerFromSample(sample, 4);
  EXPECT_EQ(part->num_partitions(), 4u);
  ASSERT_EQ(part->boundaries().size(), 3u);
  EXPECT_EQ(part->boundaries()[0], "025");
  EXPECT_EQ(part->boundaries()[1], "050");
  EXPECT_EQ(part->boundaries()[2], "075");
  // Every key routes to a valid partition, monotonically.
  uint32_t prev = 0;
  for (const auto& key : sample) {
    uint32_t p = part->PartitionOf(key);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(RangePartitionerSample, SkewedSampleCollapsesDuplicates) {
  std::vector<std::string> sample(100, "same");
  auto part = BuildRangePartitionerFromSample(sample, 8);
  // All quantiles are equal -> a single boundary survives at most.
  EXPECT_LE(part->num_partitions(), 2u);
}

TEST(RangePartitionerSample, EmptySampleGivesOnePartition) {
  auto part = BuildRangePartitionerFromSample({}, 4);
  EXPECT_EQ(part->num_partitions(), 1u);
  EXPECT_EQ(part->PartitionOf("anything"), 0u);
}

// ------------------------------------------------------------------- record

TEST(Record, SharesImmutableBytes) {
  Record a(std::string("hello"));
  Record b = a;
  EXPECT_EQ(a, b);
  EXPECT_EQ(b.slice().ToString(), "hello");
  EXPECT_EQ(Record().size(), 0u);
}

TEST(Pointer, FactoryHelpers) {
  Pointer keyed = Pointer::Keyed("k");
  EXPECT_TRUE(keyed.has_partition);
  EXPECT_EQ(keyed.partition_key, "k");
  EXPECT_EQ(keyed.key, "k");
  Pointer bcast = Pointer::Broadcast("k");
  EXPECT_FALSE(bcast.has_partition);
  EXPECT_TRUE(bcast.partition_key.empty());
}

// --------------------------------------------------------- partitioned file

struct FileFixture : ::testing::Test {
  FileFixture()
      : cluster(sim::ClusterOptions::ForNodes(4)),
        file(std::make_shared<PartitionedFile>(
            "t", std::make_shared<HashPartitioner>(8), &cluster)) {}

  void Load(int n) {
    for (int i = 0; i < n; ++i) {
      std::string key = EncodeInt64Key(i);
      ASSERT_TRUE(file->Append(key, key,
                               Record(StrFormat("%d|payload-%d", i, i)))
                      .ok());
    }
    file->Seal();
  }

  sim::Cluster cluster;
  std::shared_ptr<PartitionedFile> file;
};

TEST_F(FileFixture, QueryBeforeSealRejected) {
  std::vector<Record> out;
  EXPECT_TRUE(file->Get(0, Pointer::Keyed(EncodeInt64Key(1)), &out)
                  .IsAborted());
}

TEST_F(FileFixture, AppendAfterSealRejected) {
  Load(1);
  EXPECT_TRUE(
      file->Append("k", "k", Record(std::string("x"))).IsAborted());
}

TEST_F(FileFixture, GetFindsRecord) {
  Load(100);
  std::vector<Record> out;
  ASSERT_TRUE(file->Get(0, Pointer::Keyed(EncodeInt64Key(42)), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(FieldAt(out[0].slice().view(), '|', 0), "42");
  EXPECT_EQ(file->access_stats().records_read.load(), 1u);
  EXPECT_EQ(file->access_stats().lookups.load(), 1u);
}

TEST_F(FileFixture, GetMissIsEmptyNotError) {
  Load(10);
  std::vector<Record> out;
  ASSERT_TRUE(file->Get(0, Pointer::Keyed(EncodeInt64Key(999)), &out).ok());
  EXPECT_TRUE(out.empty());
  // A miss still probed the device.
  EXPECT_EQ(cluster.TotalStats().random_reads, 1u);
}

TEST_F(FileFixture, GetOnBroadcastPointerRejected) {
  Load(10);
  std::vector<Record> out;
  EXPECT_TRUE(
      file->Get(0, Pointer::Broadcast(EncodeInt64Key(1)), &out)
          .IsInvalidArgument());
}

TEST_F(FileFixture, RemoteGetChargesNetwork) {
  Load(100);
  // Find a key on a partition NOT owned by node 0.
  for (int i = 0; i < 100; ++i) {
    std::string key = EncodeInt64Key(i);
    uint32_t p = file->partitioner().PartitionOf(key);
    if (file->NodeOfPartition(p) != 0) {
      std::vector<Record> out;
      ASSERT_TRUE(file->Get(0, Pointer::Keyed(key), &out).ok());
      EXPECT_EQ(cluster.TotalStats().network_messages, 1u);
      return;
    }
  }
  FAIL() << "no remote key found";
}

TEST_F(FileFixture, ScanPartitionVisitsAllInOrder) {
  Load(200);
  uint64_t visited = 0;
  for (uint32_t p = 0; p < file->num_partitions(); ++p) {
    std::string prev;
    bool first = true;
    ASSERT_TRUE(file->ScanPartition(file->NodeOfPartition(p), p,
                                    [&](const Record& r) {
                                      ++visited;
                                      std::string key(FieldAt(
                                          r.slice().view(), '|', 0));
                                      (void)first;
                                      (void)prev;
                                      return true;
                                    })
                    .ok());
  }
  EXPECT_EQ(visited, 200u);
  EXPECT_EQ(file->access_stats().records_scanned.load(), 200u);
  EXPECT_EQ(file->access_stats().partition_scans.load(),
            file->num_partitions());
}

TEST_F(FileFixture, RangeLookupUnsupportedOnPlainFile) {
  Load(10);
  EXPECT_TRUE(file->GetRangeInPartition(0, 0, "a", "z",
                                        [](const Record&) { return true; })
                  .IsNotImplemented());
}

TEST_F(FileFixture, PartitionOutOfRange) {
  Load(10);
  std::vector<Record> out;
  EXPECT_TRUE(file->GetInPartition(0, 99, "k", &out).IsOutOfRange());
}

TEST_F(FileFixture, FaultPropagatesAsIOError) {
  Load(50);
  for (uint32_t n = 0; n < cluster.num_nodes(); ++n) {
    cluster.node(n).disk().InjectFaultAfter(0);
  }
  std::vector<Record> out;
  EXPECT_TRUE(
      file->Get(0, Pointer::Keyed(EncodeInt64Key(1)), &out).IsIOError());
}

TEST(BtreeFileTest, RangeWithinAndAcrossPartitions) {
  sim::Cluster cluster(sim::ClusterOptions::ForNodes(2));
  auto file = std::make_shared<BtreeFile>(
      "idx", std::make_shared<HashPartitioner>(4), &cluster);
  // Local-secondary-style load: entries spread over partitions round-robin,
  // keyed by date-ish strings.
  for (int i = 0; i < 100; ++i) {
    std::string key = StrFormat("2024-%02d", i % 12 + 1);
    ASSERT_TRUE(file->AppendToPartition(i % 4, key,
                                        Record(StrFormat("v%d", i)))
                    .ok());
  }
  file->Seal();
  uint64_t count = 0;
  ASSERT_TRUE(file->GetRangeAllPartitions(0, "2024-03", "2024-05",
                                          [&](const Record&) {
                                            ++count;
                                            return true;
                                          })
                  .ok());
  // Months 3,4,5: i%12+1 in {3,4,5} -> i%12 in {2,3,4} -> 9 values of i per
  // 12, 100 items -> 25 (i%12==2,3,4 occur 9,9,8... compute: counts of i%12==2:9, ==3:9, ==4:8) = 26? verify below.
  uint64_t expect = 0;
  for (int i = 0; i < 100; ++i) {
    int m = i % 12 + 1;
    if (m >= 3 && m <= 5) ++expect;
  }
  EXPECT_EQ(count, expect);
  EXPECT_EQ(file->access_stats().range_lookups.load(),
            file->num_partitions());
}

// ------------------------------------------------------------------ catalog

TEST(Catalog, RegisterGetDrop) {
  sim::Cluster cluster(sim::ClusterOptions::ForNodes(2));
  Catalog catalog;
  auto file = std::make_shared<PartitionedFile>(
      "f1", std::make_shared<HashPartitioner>(2), &cluster);
  ASSERT_TRUE(catalog.Register(file).ok());
  EXPECT_TRUE(catalog.Register(file).IsAlreadyExists());
  EXPECT_TRUE(catalog.Contains("f1"));
  ASSERT_TRUE(catalog.Get("f1").ok());
  EXPECT_TRUE(catalog.Get("nope").status().IsNotFound());
  EXPECT_EQ(catalog.ListNames(), std::vector<std::string>{"f1"});
  ASSERT_TRUE(catalog.Drop("f1").ok());
  EXPECT_TRUE(catalog.Drop("f1").IsNotFound());
}

TEST(Catalog, RegisterOrReplaceSwaps) {
  sim::Cluster cluster(sim::ClusterOptions::ForNodes(2));
  Catalog catalog;
  auto a = std::make_shared<PartitionedFile>(
      "f", std::make_shared<HashPartitioner>(2), &cluster);
  auto b = std::make_shared<PartitionedFile>(
      "f", std::make_shared<HashPartitioner>(4), &cluster);
  catalog.RegisterOrReplace(a);
  catalog.RegisterOrReplace(b);
  EXPECT_EQ((*catalog.Get("f"))->num_partitions(), 4u);
}

TEST(Catalog, ConcurrentRegisterAndLookup) {
  sim::Cluster cluster(sim::ClusterOptions::ForNodes(2));
  Catalog catalog;
  std::vector<std::thread> threads;
  std::atomic<int> found{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        auto file = std::make_shared<PartitionedFile>(
            StrFormat("f-%d-%d", t, i),
            std::make_shared<HashPartitioner>(2), &cluster);
        catalog.RegisterOrReplace(file);
        if (catalog.Contains(StrFormat("f-%d-%d", t, i))) found.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(found.load(), 200);
  EXPECT_EQ(catalog.ListNames().size(), 200u);
}

TEST_F(FileFixture, PartitionAccountingSumsToTotals) {
  Load(300);
  uint64_t records = 0, bytes = 0;
  for (uint32_t p = 0; p < file->num_partitions(); ++p) {
    records += file->partition_records(p);
    bytes += file->partition_bytes(p);
  }
  EXPECT_EQ(records, file->num_records());
  EXPECT_EQ(bytes, file->total_bytes());
  EXPECT_EQ(records, 300u);
}

// ------------------------------------------- async reads without a queue

using inline_read_check::AppendPayloads;
using inline_read_check::ExpectInPlaceReadMatchesBlocking;
using inline_read_check::RunOnQueue;
using inline_read_check::RunWithoutQueue;

/// A blocking read is the async read with a null completion queue: `done`
/// fires before the call returns, and the read charges in place (timed: its
/// device wait on this thread too). Submitted on a queue, the same read
/// ends with the blocking read's records, charges and counters.
class InPlaceAsyncReads : public ::testing::TestWithParam<bool> {
 protected:
  sim::Cluster cluster{
      sim::ClusterOptions::ForNodes(4).EnableTiming(GetParam(), 0.05)};
};

TEST_P(InPlaceAsyncReads, PartitionedFilePointAndBatchReadsMatchBlocking) {
  auto file = std::make_shared<PartitionedFile>(
      "t", std::make_shared<HashPartitioner>(8), &cluster);
  for (int i = 0; i < 64; ++i) {
    std::string key = EncodeInt64Key(i);
    ASSERT_TRUE(
        file->Append(key, key, Record(StrFormat("%d|payload", i))).ok());
  }
  file->Seal();
  const std::string key = EncodeInt64Key(7);
  const uint32_t p = file->partitioner().PartitionOf(key);
  const sim::NodeId storage = file->NodeOfReplica(p, 0);
  // A remote reader, so the reads charge the network too.
  const sim::NodeId reader = (storage + 1) % cluster.num_nodes();
  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) {
    if (file->partitioner().PartitionOf(EncodeInt64Key(i)) == p) {
      keys.push_back(EncodeInt64Key(i));
    }
  }
  keys.push_back(EncodeInt64Key(999));  // a miss in the same batch

  ExpectInPlaceReadMatchesBlocking(
      cluster, *file, storage,
      [&](std::vector<std::string>* payloads) {
        std::vector<Record> out;
        Status s = file->GetInPartitionOnReplica(reader, p, 0, key, &out);
        AppendPayloads(out, payloads);
        return s;
      },
      [&](std::vector<std::string>* payloads) {
        std::vector<Record> out;
        Status s = RunWithoutQueue([&](File::AsyncReadDone done) {
          file->GetInPartitionOnReplicaAsync(reader, p, 0, key, &out,
                                             nullptr, std::move(done));
        });
        AppendPayloads(out, payloads);
        return s;
      });

  ExpectInPlaceReadMatchesBlocking(
      cluster, *file, storage,
      [&](std::vector<std::string>* payloads) {
        std::vector<std::vector<Record>> out;
        Status s =
            file->GetBatchInPartitionOnReplica(reader, p, 0, keys, &out);
        for (const auto& bucket : out) AppendPayloads(bucket, payloads);
        return s;
      },
      [&](std::vector<std::string>* payloads) {
        std::vector<std::vector<Record>> out;
        Status s = RunWithoutQueue([&](File::AsyncReadDone done) {
          file->GetBatchInPartitionOnReplicaAsync(reader, p, 0, keys, &out,
                                                  nullptr, std::move(done));
        });
        for (const auto& bucket : out) AppendPayloads(bucket, payloads);
        return s;
      });

  // The same reads submitted on a queue: `done` fires from a completion
  // this thread delivers.
  ExpectInPlaceReadMatchesBlocking(
      cluster, *file, storage,
      [&](std::vector<std::string>* payloads) {
        std::vector<Record> out;
        Status s = file->GetInPartitionOnReplica(reader, p, 0, key, &out);
        AppendPayloads(out, payloads);
        return s;
      },
      [&](std::vector<std::string>* payloads) {
        std::vector<Record> out;
        Status s = RunOnQueue(
            [&](sim::CompletionQueue* cq, File::AsyncReadDone done) {
              file->GetInPartitionOnReplicaAsync(reader, p, 0, key, &out, cq,
                                                 std::move(done));
            });
        AppendPayloads(out, payloads);
        return s;
      });
  ExpectInPlaceReadMatchesBlocking(
      cluster, *file, storage,
      [&](std::vector<std::string>* payloads) {
        std::vector<std::vector<Record>> out;
        Status s =
            file->GetBatchInPartitionOnReplica(reader, p, 0, keys, &out);
        for (const auto& bucket : out) AppendPayloads(bucket, payloads);
        return s;
      },
      [&](std::vector<std::string>* payloads) {
        std::vector<std::vector<Record>> out;
        Status s = RunOnQueue(
            [&](sim::CompletionQueue* cq, File::AsyncReadDone done) {
              file->GetBatchInPartitionOnReplicaAsync(reader, p, 0, keys,
                                                      &out, cq,
                                                      std::move(done));
            });
        for (const auto& bucket : out) AppendPayloads(bucket, payloads);
        return s;
      });
}

TEST_P(InPlaceAsyncReads, BtreeFileRangeReadsMatchBlocking) {
  auto file = std::make_shared<BtreeFile>(
      "idx", std::make_shared<HashPartitioner>(4), &cluster);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(file->AppendToPartition(i % 4,
                                        StrFormat("2024-%02d", i % 12 + 1),
                                        Record(StrFormat("v%d", i)))
                    .ok());
  }
  file->Seal();
  const uint32_t p = 1;
  const sim::NodeId storage = file->NodeOfReplica(p, 0);
  const sim::NodeId reader = (storage + 1) % cluster.num_nodes();
  ExpectInPlaceReadMatchesBlocking(
      cluster, *file, storage,
      [&](std::vector<std::string>* payloads) {
        return file->GetRangeInPartitionOnReplica(
            reader, p, 0, "2024-03", "2024-07", [&](const Record& r) {
              payloads->push_back(r.bytes());
              return true;
            });
      },
      [&](std::vector<std::string>* payloads) {
        return RunWithoutQueue([&](File::AsyncReadDone done) {
          file->GetRangeInPartitionOnReplicaAsync(
              reader, p, 0, "2024-03", "2024-07",
              [payloads](const Record& r) {
                payloads->push_back(r.bytes());
                return true;
              },
              nullptr, std::move(done));
        });
      });

  // Submitted on a queue, the read lands in two completions (descent, then
  // leaf stream); `lo` and `hi` must outlive both.
  const std::string lo = "2024-03";
  const std::string hi = "2024-07";
  ExpectInPlaceReadMatchesBlocking(
      cluster, *file, storage,
      [&](std::vector<std::string>* payloads) {
        return file->GetRangeInPartitionOnReplica(
            reader, p, 0, lo, hi, [&](const Record& r) {
              payloads->push_back(r.bytes());
              return true;
            });
      },
      [&](std::vector<std::string>* payloads) {
        return RunOnQueue(
            [&](sim::CompletionQueue* cq, File::AsyncReadDone done) {
              file->GetRangeInPartitionOnReplicaAsync(
                  reader, p, 0, lo, hi,
                  [payloads](const Record& r) {
                    payloads->push_back(r.bytes());
                    return true;
                  },
                  cq, std::move(done));
            });
      });
}

INSTANTIATE_TEST_SUITE_P(Timing, InPlaceAsyncReads, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "timed" : "untimed";
                         });

TEST(Catalog, TotalRecordAccessesSumsFiles) {
  sim::Cluster cluster(sim::ClusterOptions::ForNodes(2));
  Catalog catalog;
  auto file = std::make_shared<PartitionedFile>(
      "f", std::make_shared<HashPartitioner>(2), &cluster);
  std::string key = EncodeInt64Key(1);
  ASSERT_TRUE(file->Append(key, key, Record(std::string("r"))).ok());
  file->Seal();
  catalog.RegisterOrReplace(file);
  std::vector<Record> out;
  ASSERT_TRUE(file->Get(0, Pointer::Keyed(key), &out).ok());
  EXPECT_EQ(catalog.TotalRecordAccesses(), 1u);
  catalog.ResetAccessStats();
  EXPECT_EQ(catalog.TotalRecordAccesses(), 0u);
}

}  // namespace
}  // namespace lakeharbor::io
