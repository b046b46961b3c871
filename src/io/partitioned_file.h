#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "index/btree.h"
#include "io/file.h"
#include "sim/completion_queue.h"

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

  /// Point and fused batch reads: the B-tree probe resolves records
  /// synchronously at submission; only the device charge suspends (with a
  /// null `cq` it is made in place, see File). A point read costs one
  /// random read on NodeOfReplica(partition, replica)'s disk; a batch read
  /// amortizes one B-tree descent over every key, charged as a single batch
  /// read (one seek plus cheap follow-ups) instead of keys.size() random
  /// reads. lookups are counted at submission; records_read, batched_gets
  /// and epoch attribution only once the charge landed.
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

  /// Minimum bytes charged for a device probe, even when the lookup misses:
  /// reading *nothing* still costs a page-sized I/O.
  static constexpr size_t kMinProbeBytes = 64;

  enum class ReadKind : uint8_t { kRandom, kBatch, kSequential };

  /// Charge one device read of `bytes` (`ops` fused keys for kBatch) on
  /// `storage_node`, then run `land(const sim::Completion&)`, the read's
  /// landing step. With a queue, `land` becomes the charge's callback tag
  /// on `cq` and runs on the delivering thread. With a null `cq` the charge
  /// is the blocking Charge call (a submission on a latch plus one wait)
  /// and `land` runs on this thread before the call returns: no callback
  /// tag, and nothing `land` holds is copied.
  template <typename Land>
  void ChargeRead(ReadKind kind, sim::NodeId compute_node,
                  sim::NodeId storage_node, size_t ops, size_t bytes,
                  sim::CompletionQueue* cq, Land&& land) {
    if (cq == nullptr) {
      sim::Completion c;
      switch (kind) {
        case ReadKind::kRandom:
          c.status = cluster_->ChargeRandomRead(compute_node, storage_node,
                                                bytes, &c.outcome);
          break;
        case ReadKind::kBatch:
          c.status = cluster_->ChargeBatchRead(compute_node, storage_node, ops,
                                               bytes, &c.outcome);
          break;
        case ReadKind::kSequential:
          c.status = cluster_->ChargeSequentialRead(compute_node, storage_node,
                                                    bytes, &c.outcome);
          break;
      }
      land(c);
      return;
    }
    const uint64_t tag =
        sim::MakeCompletionCallbackTag(std::forward<Land>(land));
    switch (kind) {
      case ReadKind::kRandom:
        cluster_->SubmitChargeRandomRead(compute_node, storage_node, bytes,
                                         tag, cq);
        break;
      case ReadKind::kBatch:
        cluster_->SubmitChargeBatchRead(compute_node, storage_node, ops, bytes,
                                        tag, cq);
        break;
      case ReadKind::kSequential:
        cluster_->SubmitChargeSequentialRead(compute_node, storage_node, bytes,
                                             tag, cq);
        break;
    }
  }

  /// Charge the sequential stream of one partition scan over `bytes`, with
  /// failover at the io layer (no executor involvement): a down replica is
  /// skipped in favor of the next live one, a replica whose charge comes
  /// back kUnavailable hands the scan to the next one, and — with
  /// verification on — a replica whose stream fails its checksums is
  /// treated exactly like a dead one. Once a clean stream has been read it
  /// is pushed back over each rotten replica (read repair, best-effort: a
  /// faulted write leaves the replica for the scrubber). `outcome` receives
  /// the serving stream's verdict; a successful charge counts the scan.
  /// Callers visit records only after this returns OK, so switching
  /// replicas never double-delivers records.
  Status ChargeScan(sim::NodeId compute_node, uint32_t partition,
                    uint64_t bytes, sim::ReadOutcome* outcome);

  /// Rot one of records [begin, records->size()) when `outcome` says the
  /// read was corrupted: the entropy picks the victim and flips a bit in a
  /// COPY of its payload (the stored tree data is never touched — the
  /// simulation models rot on the wire/platter, not in the source of
  /// truth). A read that returned nothing has no payload to rot.
  static void ApplyBitRot(const sim::ReadOutcome& outcome,
                          std::vector<Record>* records, size_t begin);
  /// Batched analogue: the victim index counts across the flattened
  /// buckets, which hold `found` records.
  static void ApplyBitRotBatch(const sim::ReadOutcome& outcome,
                               std::vector<std::vector<Record>>* out,
                               size_t found);

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

  /// Range read within one partition: visit records with lo <= key <= hi.
  /// Charged as one index descent (random read) plus a sequential leaf
  /// stream proportional to the result size. The tree is walked once the
  /// descent lands; records reach `visit` only once both charges landed and
  /// verified.
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
