#pragma once

#include <memory>
#include <string>
#include <vector>

#include "index/btree.h"
#include "io/file.h"

namespace lakeharbor::io {

/// The concrete distributed file of the prototype's "simple distributed
/// file system": records are hash- or range-partitioned, and each partition
/// stores its records in primary-key order in a B-tree, so point lookups by
/// in-partition key cost one simulated random read.
///
/// Loading protocol: Append() records, then Seal(); queries on an unsealed
/// file are rejected. This mirrors the lake's immutable-raw-data model —
/// structure maintenance creates *new* files rather than mutating loaded
/// ones.
class PartitionedFile : public File {
 public:
  PartitionedFile(std::string name, std::shared_ptr<Partitioner> partitioner,
                  sim::Cluster* cluster, size_t btree_fanout = 64);

  /// Add a record during loading. The partition key is routed through the
  /// partitioner; `key` is the in-partition (primary) key.
  Status Append(const std::string& partition_key, std::string key,
                Record record);

  /// Add a record to an explicit partition, bypassing the partitioner.
  /// Used for *local* secondary indexes, whose partitions mirror the base
  /// file's partitions 1:1 rather than being derived from the index key.
  Status AppendToPartition(uint32_t partition, std::string key, Record record);

  /// Finish loading. Idempotent.
  void Seal() { sealed_ = true; }
  bool sealed() const { return sealed_; }

  Status Get(sim::NodeId compute_node, const Pointer& ptr,
             std::vector<Record>* out) override;
  Status GetInPartition(sim::NodeId compute_node, uint32_t partition,
                        const std::string& key,
                        std::vector<Record>* out) override;
  /// Replica-addressed point lookup: identical result from any replica, but
  /// device charges land on NodeOfReplica(partition, replica)'s disk.
  Status GetInPartitionOnReplica(sim::NodeId compute_node, uint32_t partition,
                                 uint32_t replica, const std::string& key,
                                 std::vector<Record>* out) override;

  /// Fused multi-key probe: one B-tree descent amortized over every key of
  /// the batch, charged as a single batch read (one seek plus cheap
  /// follow-ups) instead of keys.size() random reads.
  Status GetBatchInPartition(sim::NodeId compute_node, uint32_t partition,
                             const std::vector<std::string>& keys,
                             std::vector<std::vector<Record>>* out) override;
  Status GetBatchInPartitionOnReplica(
      sim::NodeId compute_node, uint32_t partition, uint32_t replica,
      const std::vector<std::string>& keys,
      std::vector<std::vector<Record>>* out) override;

  /// Async point/batch reads: the B-tree probe resolves records
  /// synchronously at submission; only the device charge suspends. Counter
  /// placement matches the blocking path exactly — lookups/batched_gets are
  /// bumped before the charge where the blocking path bumps them before,
  /// records_read and epoch attribution land only on a successful charge.
  /// A null `cq` runs the blocking read in place (see File).
  void GetInPartitionOnReplicaAsync(sim::NodeId compute_node,
                                    uint32_t partition, uint32_t replica,
                                    const std::string& key,
                                    std::vector<Record>* out,
                                    sim::CompletionQueue* cq,
                                    AsyncReadDone done) override;
  void GetBatchInPartitionOnReplicaAsync(sim::NodeId compute_node,
                                         uint32_t partition, uint32_t replica,
                                         const std::vector<std::string>& keys,
                                         std::vector<std::vector<Record>>* out,
                                         sim::CompletionQueue* cq,
                                         AsyncReadDone done) override;

  Status ScanPartition(sim::NodeId compute_node, uint32_t partition,
                       const RecordVisitor& visit) override;

  /// Scan one partition exposing the in-partition keys alongside the
  /// records (statistics builders need the key domain). Charged like
  /// ScanPartition.
  using KeyedRecordVisitor =
      std::function<bool(const std::string& key, const Record& record)>;
  Status ScanPartitionKeyed(sim::NodeId compute_node, uint32_t partition,
                            const KeyedRecordVisitor& visit);

  uint64_t num_records() const override { return num_records_; }
  uint64_t total_bytes() const override { return total_bytes_; }
  uint64_t PartitionBytes(uint32_t partition) const override {
    return partitions_[partition].bytes;
  }
  uint64_t partition_bytes(uint32_t partition) const {
    return partitions_[partition].bytes;
  }
  uint64_t partition_records(uint32_t partition) const {
    return partitions_[partition].tree->size();
  }

 protected:
  struct Partition {
    std::unique_ptr<index::Btree<Record>> tree;
    uint64_t bytes = 0;
  };

  Status CheckSealed() const;
  Status CheckPartitionAndReplica(uint32_t partition, uint32_t replica) const;
  Status ChargeLookup(sim::NodeId compute_node, uint32_t partition,
                      uint32_t replica, size_t result_bytes,
                      size_t result_records,
                      sim::ReadOutcome* outcome = nullptr);
  /// Checksum-verify records [begin, out->size()) (no-op when
  /// verify_checksums() is off). On a mismatch: count it, truncate `out`
  /// back to `begin` so the caller never sees rotten bytes, and return
  /// kCorruption naming the read (key `key`, or range [`key`, `*range_hi`]
  /// when `range_hi` is set), partition, replica, and storage node — the
  /// context the repair layer and the error surface need. The message is
  /// only built on a mismatch.
  Status VerifyRecords(std::vector<Record>* out, size_t begin,
                       const std::string& key, const std::string* range_hi,
                       uint32_t partition, uint32_t replica);
  /// Batch analogue: verify every bucket; on a mismatch the whole batch is
  /// cleared (the caller must treat it as unread) and the error names the
  /// offending key.
  Status VerifyBatch(std::vector<std::vector<Record>>* out,
                     const std::vector<std::string>& keys, uint32_t partition,
                     uint32_t replica);
  /// Per-epoch read attribution (obs): counts a successful read of
  /// `replica` into old_epoch_reads/new_epoch_reads during a rebalance.
  void CountEpochRead(uint32_t partition, uint32_t replica);

  std::vector<Partition> partitions_;
  uint64_t num_records_ = 0;
  uint64_t total_bytes_ = 0;
  bool sealed_ = false;
};

/// A BtreeFile additionally locates the set of records between two pointers
/// (§III-B). Secondary and global indexes — and base files queried by key
/// prefix ranges — are BtreeFiles.
class BtreeFile final : public PartitionedFile {
 public:
  using PartitionedFile::PartitionedFile;

  /// Range lookup within one partition: visit records with lo <= key <= hi.
  /// Charged as one index descent (random read) plus a sequential leaf
  /// stream proportional to the result size.
  Status GetRangeInPartition(sim::NodeId compute_node, uint32_t partition,
                             const std::string& lo, const std::string& hi,
                             const RecordVisitor& visit) override;
  Status GetRangeInPartitionOnReplica(sim::NodeId compute_node,
                                      uint32_t partition, uint32_t replica,
                                      const std::string& lo,
                                      const std::string& hi,
                                      const RecordVisitor& visit) override;

  /// Async range read: descent charge suspends, then the B-tree range is
  /// collected on the delivering thread, then the leaf-stream sequential
  /// charge suspends again; records reach `visit` only once both charges
  /// landed and verified. A null `cq` runs the blocking read in place.
  void GetRangeInPartitionOnReplicaAsync(sim::NodeId compute_node,
                                         uint32_t partition, uint32_t replica,
                                         const std::string& lo,
                                         const std::string& hi,
                                         RecordVisitor visit,
                                         sim::CompletionQueue* cq,
                                         AsyncReadDone done) override;

  /// Range lookup across every partition, in partition order. Used when the
  /// indexed key is not the partitioning key (local secondary indexes).
  Status GetRangeAllPartitions(sim::NodeId compute_node, const std::string& lo,
                               const std::string& hi,
                               const RecordVisitor& visit);
};

}  // namespace lakeharbor::io
