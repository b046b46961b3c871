#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "sim/cluster.h"

namespace lakeharbor::sim {
namespace {

DiskOptions CountingDisk() {
  DiskOptions opts;
  opts.timing_enabled = false;
  return opts;
}

TEST(Disk, CountsRandomReads) {
  Disk disk(CountingDisk());
  ASSERT_TRUE(disk.RandomRead(100).ok());
  ASSERT_TRUE(disk.RandomRead(50).ok());
  EXPECT_EQ(disk.stats().random_reads.load(), 2u);
  EXPECT_EQ(disk.stats().bytes_random.load(), 150u);
}

TEST(Disk, SequentialReadChunksAndCounts) {
  DiskOptions opts = CountingDisk();
  opts.scan_chunk_bytes = 100;
  Disk disk(opts);
  ASSERT_TRUE(disk.SequentialRead(250).ok());
  EXPECT_EQ(disk.stats().sequential_chunks.load(), 3u);  // 100+100+50
  EXPECT_EQ(disk.stats().bytes_sequential.load(), 250u);
}

TEST(Disk, WriteCounts) {
  Disk disk(CountingDisk());
  ASSERT_TRUE(disk.Write(64).ok());
  EXPECT_EQ(disk.stats().writes.load(), 1u);
  EXPECT_EQ(disk.stats().bytes_written.load(), 64u);
}

TEST(Disk, FaultInjectionAfterN) {
  Disk disk(CountingDisk());
  disk.InjectFaultAfter(2);
  EXPECT_TRUE(disk.RandomRead(10).ok());
  EXPECT_TRUE(disk.RandomRead(10).ok());
  Status s = disk.RandomRead(10);
  EXPECT_TRUE(s.IsIOError());
  EXPECT_TRUE(disk.SequentialRead(10).IsIOError());
  EXPECT_GE(disk.stats().injected_faults.load(), 2u);
  disk.ClearFault();
  EXPECT_TRUE(disk.RandomRead(10).ok());
}

TEST(Disk, TransientFaultEveryNth) {
  Disk disk(CountingDisk());
  disk.InjectFaultEvery(3);
  int failures = 0;
  for (int i = 1; i <= 12; ++i) {
    Status s = disk.RandomRead(8);
    if (i % 3 == 0) {
      EXPECT_TRUE(s.IsIOError()) << i;
      ++failures;
    } else {
      EXPECT_TRUE(s.ok()) << i;
    }
  }
  EXPECT_EQ(failures, 4);
  EXPECT_EQ(disk.stats().injected_faults.load(), 4u);
  disk.ClearFault();
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(disk.RandomRead(8).ok());
}

TEST(Disk, TimingModeDelaysRandomReads) {
  DiskOptions opts;
  opts.timing_enabled = true;
  opts.io_slots = 1;
  opts.random_read_latency_us = 3000;
  Disk disk(opts);
  StopWatch watch;
  ASSERT_TRUE(disk.RandomRead(10).ok());
  ASSERT_TRUE(disk.RandomRead(10).ok());
  // Two serialized 3 ms reads must take at least ~6 ms.
  EXPECT_GE(watch.ElapsedMicros(), 5000);
}

TEST(Disk, SlotsAllowOverlap) {
  DiskOptions opts;
  opts.timing_enabled = true;
  opts.io_slots = 8;
  opts.random_read_latency_us = 10000;
  Disk disk(opts);
  StopWatch watch;
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] { ASSERT_TRUE(disk.RandomRead(10).ok()); });
  }
  for (auto& t : threads) t.join();
  // 8 overlapping 10 ms reads on 8 slots: far less than the serial 80 ms.
  EXPECT_LT(watch.ElapsedMicros(), 60000);
}

TEST(Network, CountsMessages) {
  NetworkOptions opts;
  Network net(opts);
  ASSERT_TRUE(net.Transfer(100).ok());
  ASSERT_TRUE(net.Transfer(28).ok());
  EXPECT_EQ(net.stats().network_messages.load(), 2u);
  EXPECT_EQ(net.stats().network_bytes.load(), 128u);
}

ClusterOptions SmallCluster(uint32_t nodes = 4) {
  ClusterOptions opts;
  opts.num_nodes = nodes;
  opts.EnableTiming(false);
  return opts;
}

TEST(Cluster, LocalReadChargesNoNetwork) {
  Cluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.ChargeRandomRead(1, 1, 100).ok());
  auto totals = cluster.TotalStats();
  EXPECT_EQ(totals.random_reads, 1u);
  EXPECT_EQ(totals.network_messages, 0u);
  EXPECT_EQ(cluster.node(1).disk().stats().random_reads.load(), 1u);
  EXPECT_EQ(cluster.node(0).disk().stats().random_reads.load(), 0u);
}

TEST(Cluster, RemoteReadChargesNetwork) {
  Cluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.ChargeRandomRead(0, 2, 100).ok());
  auto totals = cluster.TotalStats();
  EXPECT_EQ(totals.random_reads, 1u);
  EXPECT_EQ(totals.network_messages, 1u);
  EXPECT_EQ(totals.network_bytes, 100u);
}

TEST(Cluster, MessageBetweenSameNodeIsFree) {
  Cluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.ChargeMessage(3, 3, 100).ok());
  EXPECT_EQ(cluster.TotalStats().network_messages, 0u);
  ASSERT_TRUE(cluster.ChargeMessage(3, 1, 100).ok());
  EXPECT_EQ(cluster.TotalStats().network_messages, 1u);
}

TEST(Cluster, WriteChargesTargetDisk) {
  Cluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.ChargeWrite(0, 3, 64).ok());
  EXPECT_EQ(cluster.node(3).disk().stats().writes.load(), 1u);
  EXPECT_EQ(cluster.TotalStats().network_messages, 1u);  // remote write ships
}

TEST(Cluster, ResetStatsClearsEverything) {
  Cluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.ChargeRandomRead(0, 1, 10).ok());
  ASSERT_TRUE(cluster.ChargeSequentialRead(0, 0, 10).ok());
  cluster.ResetStats();
  auto totals = cluster.TotalStats();
  EXPECT_EQ(totals.random_reads, 0u);
  EXPECT_EQ(totals.bytes_sequential, 0u);
  EXPECT_EQ(totals.network_messages, 0u);
}

TEST(Cluster, FaultOnOneNodePropagates) {
  Cluster cluster(SmallCluster());
  cluster.node(2).disk().InjectFaultAfter(0);
  EXPECT_TRUE(cluster.ChargeRandomRead(0, 1, 10).ok());
  EXPECT_TRUE(cluster.ChargeRandomRead(0, 2, 10).IsIOError());
}


// ------------------------------------------------------ one device queue
//
// Each disk admits every operation through one queue: blocking calls wait
// in the same slots and FIFO as async submissions, scans share one chunk
// rotation, and a replicated write overlaps its replicas. The timed cases
// also run under ThreadSanitizer (ctest entry `sim_device_queue_timed`,
// label chaos): the timer thread ends every wait.

/// Wait until `cq` (pull mode) holds a completion, and return it.
Completion AwaitCompletion(CompletionQueue& cq) {
  for (;;) {
    if (auto c = cq.TryPop()) return *c;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

ClusterOptions TimedCluster(uint32_t nodes) {
  ClusterOptions opts;
  opts.num_nodes = nodes;
  opts.EnableTiming(true);
  return opts;
}

TEST(DeviceQueue, AsyncReadAndBlockingWriteShareOneSlot) {
  ClusterOptions opts = TimedCluster(1);
  opts.disk.io_slots = 1;
  opts.disk.random_read_latency_us = 20000;
  Cluster cluster(opts);
  Disk& disk = cluster.node(0).disk();
  CompletionQueue cq;
  StopWatch watch;
  disk.SubmitRandomRead(10, /*tag=*/7, &cq);
  ASSERT_TRUE(disk.Write(64).ok());
  Completion read = AwaitCompletion(cq);
  // One slot serves one 20 ms operation at a time: 40 ms, not 20.
  EXPECT_GE(watch.ElapsedMicros(), 39000);
  EXPECT_EQ(read.tag, 7u);
  EXPECT_TRUE(read.status.ok());
  EXPECT_EQ(disk.stats().random_reads.load(), 1u);
  EXPECT_EQ(disk.stats().writes.load(), 1u);
}

TEST(DeviceQueue, AsyncAndBlockingScansShareOneRotation) {
  ClusterOptions opts = TimedCluster(1);
  opts.disk.scan_bandwidth_bytes_per_sec = 1000 * 1000;  // 1 byte per us
  Cluster cluster(opts);
  Disk& disk = cluster.node(0).disk();
  CompletionQueue cq;
  StopWatch watch;
  disk.SubmitSequentialRead(20000, /*tag=*/3, &cq);
  ASSERT_TRUE(disk.SequentialRead(20000).ok());
  ASSERT_TRUE(AwaitCompletion(cq).status.ok());
  // The device streams one chunk at a time: two 20 ms scans take 40 ms.
  EXPECT_GE(watch.ElapsedMicros(), 39000);
  EXPECT_EQ(disk.stats().bytes_sequential.load(), 40000u);
}

TEST(DeviceQueue, ReplicatedWriteCostsItsSlowestReplica) {
  ClusterOptions opts = TimedCluster(2);
  opts.disk.random_read_latency_us = 50000;  // one write
  opts.network.message_latency_us = 10000;   // one hop
  Cluster cluster(opts);
  StopWatch watch;
  // Node 0 writes its local replica while the hop to node 1 and node 1's
  // write run: 10 + 50 ms, not 50 + 10 + 50 ms.
  ASSERT_TRUE(cluster.ChargeReplicatedWrite(0, {0, 1}, 64).ok());
  const int64_t elapsed_us = watch.ElapsedMicros();
  EXPECT_GE(elapsed_us, 59000);
  EXPECT_LT(elapsed_us, 100000);
  EXPECT_EQ(cluster.node(0).disk().stats().writes.load(), 1u);
  EXPECT_EQ(cluster.node(1).disk().stats().writes.load(), 1u);
  EXPECT_EQ(cluster.TotalStats().network_messages, 1u);
}

TEST(DeviceQueue, UntimedReplicatedWriteStopsAtTheFirstFault) {
  Cluster cluster(SmallCluster(3));
  cluster.node(1).disk().InjectFaultAfter(0);
  Status s = cluster.ChargeReplicatedWrite(0, {1, 2}, 64);
  ASSERT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_NE(s.message().find("node 1"), std::string::npos) << s.ToString();
  // The second replica is never charged: no hop to it, no write on it.
  EXPECT_EQ(cluster.node(2).disk().stats().writes.load(), 0u);
  EXPECT_EQ(cluster.node(1).disk().stats().writes.load(), 0u);
  EXPECT_EQ(cluster.TotalStats().network_messages, 1u);
}

}  // namespace
}  // namespace lakeharbor::sim
