#pragma once

// Check of io::File's async-read contract: with a null completion queue the
// read runs in place and `done` fires before the call returns; on a
// pull-mode queue that the test thread drains, `done` fires from a
// delivered completion. Either way the status, the delivered records, the
// file's AccessStats and the cluster's device counters equal those of the
// blocking replica read — on a healthy replica, a downed node and a rotten
// read alike.

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "io/file.h"
#include "io/record.h"
#include "sim/cluster.h"
#include "sim/completion_queue.h"

namespace lakeharbor::inline_read_check {

/// What one read did: its status, the payloads it delivered, and the
/// deltas it left on the file's AccessStats and the cluster's device
/// counters (service time excluded: timed service includes queueing).
struct ReadEffect {
  StatusCode code = StatusCode::kOk;
  std::vector<std::string> records;
  std::vector<uint64_t> access;
  std::vector<uint64_t> devices;
};

inline std::vector<uint64_t> AccessCounters(const io::AccessStats& s) {
  return {s.lookups.load(),         s.range_lookups.load(),
          s.records_read.load(),    s.batched_gets.load(),
          s.batched_keys.load(),    s.failovers.load(),
          s.old_epoch_reads.load(), s.new_epoch_reads.load(),
          s.corrupt_reads.load(),   s.read_repairs.load()};
}

inline std::vector<uint64_t> DeviceCounters(const sim::ResourceTotals& t) {
  return {t.random_reads,      t.batched_reads,
          t.batched_ops,       t.sequential_chunks,
          t.bytes_random,      t.bytes_sequential,
          t.writes,            t.bytes_written,
          t.network_messages,  t.network_bytes,
          t.injected_faults,   t.injected_latency_spikes,
          t.injected_corruptions};
}

inline std::vector<uint64_t> Delta(const std::vector<uint64_t>& after,
                                   const std::vector<uint64_t>& before) {
  std::vector<uint64_t> delta(after.size());
  for (size_t i = 0; i < after.size(); ++i) delta[i] = after[i] - before[i];
  return delta;
}

/// `read(records)` returns the read's status and appends the payloads it
/// delivered.
template <typename Read>
ReadEffect Measure(sim::Cluster& cluster, const io::File& stats_file,
                   const Read& read) {
  const auto access_before = AccessCounters(stats_file.access_stats());
  const auto devices_before = DeviceCounters(cluster.TotalStats());
  ReadEffect effect;
  effect.code = read(&effect.records).code();
  effect.access = Delta(AccessCounters(stats_file.access_stats()),
                        access_before);
  effect.devices = Delta(DeviceCounters(cluster.TotalStats()),
                         devices_before);
  return effect;
}

/// Call an async read with a null completion queue (`start(done)` must
/// pass `done` on); fails the test unless `done` fired before the call
/// returned.
template <typename Start>
Status RunWithoutQueue(const Start& start) {
  Status status;
  bool ran = false;
  start([&status, &ran](Status s) {
    status = std::move(s);
    ran = true;
  });
  EXPECT_TRUE(ran) << "done had not fired when the read returned";
  return status;
}

/// Call an async read on a pull-mode completion queue (`start(cq, done)`
/// must pass both on) and deliver its completions on this thread until
/// `done` fires. Timed, the device timer thread pushes them meanwhile.
template <typename Start>
Status RunOnQueue(const Start& start) {
  sim::CompletionQueue cq;
  Status status;
  bool ran = false;
  start(&cq, [&status, &ran](Status s) {
    status = std::move(s);
    ran = true;
  });
  while (!ran) {
    if (std::optional<sim::Completion> c = cq.TryPop()) {
      sim::DeliverCallbackTag(*c);
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  EXPECT_TRUE(cq.empty()) << "completions left after done fired";
  return status;
}

inline void AppendPayloads(const std::vector<io::Record>& records,
                           std::vector<std::string>* out) {
  for (const io::Record& r : records) out->push_back(r.bytes());
}

enum class ReplicaFault { kNone, kDown, kRotten };

/// Arm `fault` on `node`, rewinding its disk's fault stream so the two
/// reads of one case draw alike; returns the status the reads must end in.
inline StatusCode ArmFault(sim::Cluster& cluster, sim::NodeId node,
                           ReplicaFault fault) {
  cluster.SetNodeOutage(node, fault == ReplicaFault::kDown);
  sim::FaultOptions faults;
  faults.seed = 11;
  if (fault == ReplicaFault::kRotten) faults.corruption_rate = 1.0;
  cluster.node(node).disk().ConfigureFaults(faults);
  switch (fault) {
    case ReplicaFault::kNone:
      return StatusCode::kOk;
    case ReplicaFault::kDown:
      return StatusCode::kUnavailable;
    case ReplicaFault::kRotten:
      return StatusCode::kCorruption;
  }
  return StatusCode::kOk;
}

/// For each fault on the replica's `storage_node`: the blocking read and the
/// async read `in_place` (with a null queue, or on a queue RunOnQueue
/// drains) end alike and leave the same counters behind.
template <typename Blocking, typename InPlace>
void ExpectInPlaceReadMatchesBlocking(sim::Cluster& cluster,
                                      const io::File& stats_file,
                                      sim::NodeId storage_node,
                                      const Blocking& blocking,
                                      const InPlace& in_place) {
  for (ReplicaFault fault : {ReplicaFault::kNone, ReplicaFault::kDown,
                             ReplicaFault::kRotten}) {
    SCOPED_TRACE("fault " + std::to_string(static_cast<int>(fault)));
    const StatusCode expected = ArmFault(cluster, storage_node, fault);
    const ReadEffect want = Measure(cluster, stats_file, blocking);
    ArmFault(cluster, storage_node, fault);
    const ReadEffect got = Measure(cluster, stats_file, in_place);
    EXPECT_EQ(want.code, expected);
    EXPECT_EQ(got.code, want.code);
    if (expected == StatusCode::kOk) {
      EXPECT_FALSE(want.records.empty());
      EXPECT_EQ(got.records, want.records);
    }
    EXPECT_EQ(got.access, want.access);
    EXPECT_EQ(got.devices, want.devices);
  }
  ArmFault(cluster, storage_node, ReplicaFault::kNone);
}

}  // namespace lakeharbor::inline_read_check
