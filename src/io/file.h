#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "io/access_stats.h"
#include "io/partitioner.h"
#include "io/placement.h"
#include "io/pointer.h"
#include "io/record.h"
#include "sim/cluster.h"

namespace lakeharbor::io {

/// Visitor over records; return false to stop early.
using RecordVisitor = std::function<bool(const Record&)>;

/// A File is a set of Records distributed into partitions (§III-B). It can
/// locate Records given a Pointer: the partition key is routed through the
/// pre-configured Partitioner, and the in-partition key finds the records
/// within the partition. Every access is charged to the simulated cluster
/// devices and counted in AccessStats.
///
/// Partition p is placed on cluster node (p mod num_nodes); partitioning is
/// therefore also the unit of data placement, as in the paper's "simple
/// distributed file system".
class File {
 public:
  File(std::string name, std::shared_ptr<Partitioner> partitioner,
       sim::Cluster* cluster)
      : name_(std::move(name)),
        partitioner_(std::move(partitioner)),
        cluster_(cluster),
        placement_(PlacementMap(cluster->ActiveNodeIds(), 1)) {
    LH_CHECK(partitioner_ != nullptr);
    LH_CHECK(cluster_ != nullptr);
  }
  virtual ~File() = default;
  LH_DISALLOW_COPY_AND_ASSIGN(File);

  const std::string& name() const { return name_; }
  const Partitioner& partitioner() const { return *partitioner_; }
  uint32_t num_partitions() const { return partitioner_->num_partitions(); }
  sim::Cluster* cluster() const { return cluster_; }

  /// Node holding the SERVING primary replica of `partition` — identical
  /// to the unreplicated `p mod num_nodes` placement on a static cluster,
  /// whatever the replication factor (replicas only ADD copies; they never
  /// move the primary). During a rebalance this is the old primary until
  /// the partition's epoch flip, then the new one.
  ///
  /// Virtual (along with the other placement accessors below) so a wrapper
  /// File that serves another file's data — ingest::SnapshotView — routes
  /// and fails over against the BACKING file's placement, not its own.
  virtual sim::NodeId NodeOfPartition(uint32_t partition) const {
    return placement_.PrimaryNode(partition);
  }

  virtual sim::NodeId NodeOfReplica(uint32_t partition,
                                    uint32_t replica) const {
    return placement_.ReplicaNode(partition, replica);
  }

  /// Replica slots a reader may currently try for `partition` — equals
  /// replication_factor() in steady state, old+new set sizes during the
  /// post-flip window of a rebalance. Failover loops iterate this, NOT
  /// replication_factor(), so queries keep serving across epoch flips.
  virtual uint32_t ReplicaCountFor(uint32_t partition) const {
    return placement_.ReplicaCountFor(partition);
  }

  /// Broadcast owner of `partition` for a tuple stamped at `fanout_epoch`
  /// (io::kEpochCurrent = live placement). See PlacementManager.
  virtual sim::NodeId BroadcastOwner(uint32_t partition,
                                     uint64_t fanout_epoch) const {
    return placement_.BroadcastOwner(partition, fanout_epoch);
  }

  /// Replicate this file's partitions `rf`-way (clamped LOUDLY to the
  /// active node count — see PlacementMap::clamped()). Placement-only in
  /// this simulation: replica reads hit the replica node's devices, and
  /// ingest charges writes to every replica. Call before or after
  /// loading — charging is the same either way since record payloads are
  /// held once in memory. Must not be called during a rebalance.
  void SetReplicationFactor(uint32_t rf) {
    placement_.Reset(PlacementMap(cluster_->ActiveNodeIds(), rf));
  }
  uint32_t replication_factor() const {
    return placement_.replication_factor();
  }

  /// Copy of the current TARGET placement snapshot (steady state: the
  /// serving map). Ingest-side callers use its ReplicaNodes() to charge
  /// replicated writes.
  PlacementMap placement() const { return placement_.Snapshot(); }

  /// The epoch-versioned placement — the rebalancer drives transitions
  /// through this.
  PlacementManager& placement_manager() { return placement_; }
  const PlacementManager& placement_manager() const { return placement_; }

  /// --- Reads ------------------------------------------------------------
  ///
  /// Each read has one body: its continuation form, the three virtual
  /// *Async calls, which are also the only reads the built-in dereferencers
  /// make. `done` fires exactly once; `key`, `keys`, `lo`, `hi` and `out`
  /// must stay valid until then (the reads hold them by pointer and never
  /// copy them). On a non-OK status, `out` contents are unspecified —
  /// callers clear and retry.
  ///
  /// With a completion queue, record resolution (the in-memory structure
  /// descent) happens synchronously at submission and only the simulated
  /// device charge is asynchronous, delivered through `cq`. A blocking read
  /// is the async call with a null `cq`: the charge is made in place (a
  /// submission on a latch plus one wait: the same charges, fault and rot
  /// draws, and, timing on, device wait on this thread), the read lands on
  /// this thread, and `done` fires before the call returns. The blocking
  /// reads below are exactly that call.
  using AsyncReadDone = std::function<void(Status)>;

  /// Resolve an in-partition key against the given replica's copy (device
  /// charges go to NodeOfReplica(partition, replica); replica 0 is the
  /// primary). An empty result is not an error.
  virtual void GetInPartitionOnReplicaAsync(sim::NodeId compute_node,
                                            uint32_t partition,
                                            uint32_t replica,
                                            const std::string& key,
                                            std::vector<Record>* out,
                                            sim::CompletionQueue* cq,
                                            AsyncReadDone done) = 0;

  /// Resolve many in-partition keys of ONE partition in a single fused
  /// device operation. `out` is resized to `keys.size()`; slot i receives
  /// the records matching keys[i] (possibly empty — not an error). On
  /// error, callers must treat the whole batch as unread (this is what lets
  /// executor retries re-issue it safely).
  virtual void GetBatchInPartitionOnReplicaAsync(
      sim::NodeId compute_node, uint32_t partition, uint32_t replica,
      const std::vector<std::string>& keys,
      std::vector<std::vector<Record>>* out, sim::CompletionQueue* cq,
      AsyncReadDone done) = 0;

  /// Visit the records with lo <= key <= hi. Only BtreeFile supports range
  /// reads; the base fails kNotImplemented. `visit` is taken by value: it
  /// runs once the read's charges landed, on the delivering thread, before
  /// `done`.
  virtual void GetRangeInPartitionOnReplicaAsync(
      sim::NodeId compute_node, uint32_t partition, uint32_t replica,
      const std::string& lo, const std::string& hi, RecordVisitor visit,
      sim::CompletionQueue* cq, AsyncReadDone done);

  /// Resolve a pointer (must carry partition information) to the records
  /// with the matching in-partition key, reading the primary replica.
  Status Get(sim::NodeId compute_node, const Pointer& ptr,
             std::vector<Record>* out) {
    if (!ptr.has_partition) {
      return Status::InvalidArgument(
          "Get on file '" + name_ +
          "' requires partition information (broadcast pointers are "
          "resolved by the executor)");
    }
    return GetInPartition(compute_node,
                          partitioner_->PartitionOf(ptr.partition_key),
                          ptr.key, out);
  }

  /// Resolve a key within one specific partition's primary replica — used
  /// by the executor to serve broadcast pointers locally.
  Status GetInPartition(sim::NodeId compute_node, uint32_t partition,
                        const std::string& key, std::vector<Record>* out) {
    return GetInPartitionOnReplica(compute_node, partition, /*replica=*/0, key,
                                   out);
  }

  Status GetInPartitionOnReplica(sim::NodeId compute_node, uint32_t partition,
                                 uint32_t replica, const std::string& key,
                                 std::vector<Record>* out) {
    Status status;
    GetInPartitionOnReplicaAsync(
        compute_node, partition, replica, key, out, nullptr,
        [&status](Status s) { status = std::move(s); });
    return status;
  }

  Status GetBatchInPartition(sim::NodeId compute_node, uint32_t partition,
                             const std::vector<std::string>& keys,
                             std::vector<std::vector<Record>>* out) {
    return GetBatchInPartitionOnReplica(compute_node, partition,
                                        /*replica=*/0, keys, out);
  }

  Status GetBatchInPartitionOnReplica(sim::NodeId compute_node,
                                      uint32_t partition, uint32_t replica,
                                      const std::vector<std::string>& keys,
                                      std::vector<std::vector<Record>>* out) {
    Status status;
    GetBatchInPartitionOnReplicaAsync(
        compute_node, partition, replica, keys, out, nullptr,
        [&status](Status s) { status = std::move(s); });
    return status;
  }

  Status GetRangeInPartition(sim::NodeId compute_node, uint32_t partition,
                             const std::string& lo, const std::string& hi,
                             const RecordVisitor& visit) {
    return GetRangeInPartitionOnReplica(compute_node, partition,
                                        /*replica=*/0, lo, hi, visit);
  }

  Status GetRangeInPartitionOnReplica(sim::NodeId compute_node,
                                      uint32_t partition, uint32_t replica,
                                      const std::string& lo,
                                      const std::string& hi,
                                      const RecordVisitor& visit) {
    Status status;
    GetRangeInPartitionOnReplicaAsync(
        compute_node, partition, replica, lo, hi,
        [&visit](const Record& record) { return visit(record); }, nullptr,
        [&status](Status s) { status = std::move(s); });
    return status;
  }

  /// Visit every record of a partition in key order (sequential scan).
  virtual Status ScanPartition(sim::NodeId compute_node, uint32_t partition,
                               const RecordVisitor& visit) = 0;

  virtual uint64_t num_records() const = 0;
  virtual uint64_t total_bytes() const = 0;

  /// Bytes held by one partition — the unit of rebalance copy work. The
  /// base implementation assumes even spread; PartitionedFile reports the
  /// exact per-partition payload.
  virtual uint64_t PartitionBytes(uint32_t partition) const {
    (void)partition;
    const uint32_t parts = num_partitions();
    return parts == 0 ? 0 : total_bytes() / parts;
  }

  /// True when `partition` has streamed appends not yet folded into its
  /// B-tree (an unmerged op-log tail). Background maintenance that treats a
  /// partition as an immutable byte range — the Scrubber's verify streams,
  /// the Rebalancer's copies — must not race a concurrent fold, so both
  /// consult this and skip/re-queue dirty partitions. The default (every
  /// non-streaming file is always quiesced) keeps existing files unchanged;
  /// ingest::StreamingFile overrides it.
  virtual bool PartitionHasUnmergedTail(uint32_t partition) const {
    (void)partition;
    return false;
  }

  /// True when a (file, partition, key) read is a pure function of loaded
  /// data, i.e. safe to admit into the executor's record cache. Streaming
  /// files and snapshot views return false: their answers depend on merge
  /// progress and on the captured snapshot, so a cached bucket from one
  /// query could leak another snapshot's view of the key.
  virtual bool CacheableReads() const { return true; }

  const AccessStats& access_stats() const { return access_stats_; }
  AccessStats& mutable_access_stats() { return access_stats_; }

  /// Integrity knob: when true (the default), every read path verifies each
  /// returned record's checksum envelope and surfaces kCorruption on a
  /// mismatch instead of handing back rotten bytes. Disabling it models an
  /// unprotected lake — the ablation_scrub bench's "no-verify" cells use
  /// this to demonstrate silent result divergence under bit-rot.
  void SetVerifyChecksums(bool verify) {
    verify_checksums_.store(verify, std::memory_order_relaxed);
  }
  bool verify_checksums() const {
    return verify_checksums_.load(std::memory_order_relaxed);
  }

 protected:
  std::string name_;
  std::shared_ptr<Partitioner> partitioner_;
  sim::Cluster* cluster_;
  PlacementManager placement_;
  AccessStats access_stats_;
  std::atomic<bool> verify_checksums_{true};
};

}  // namespace lakeharbor::io
