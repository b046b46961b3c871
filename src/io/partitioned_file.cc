#include "io/partitioned_file.h"

#include <algorithm>
#include <utility>

namespace lakeharbor::io {

void PartitionedFile::ApplyBitRot(const sim::ReadOutcome& outcome,
                                  std::vector<Record>* records, size_t begin) {
  if (!outcome.corrupted || records->size() <= begin) return;
  const size_t victim =
      begin + static_cast<size_t>(outcome.corruption_entropy %
                                  (records->size() - begin));
  (*records)[victim] =
      (*records)[victim].CorruptedCopy(outcome.corruption_entropy);
}

void PartitionedFile::ApplyBitRotBatch(const sim::ReadOutcome& outcome,
                                       std::vector<std::vector<Record>>* out,
                                       size_t found) {
  if (!outcome.corrupted || found == 0) return;
  size_t victim = static_cast<size_t>(outcome.corruption_entropy % found);
  for (std::vector<Record>& bucket : *out) {
    if (victim < bucket.size()) {
      bucket[victim] =
          bucket[victim].CorruptedCopy(outcome.corruption_entropy);
      return;
    }
    victim -= bucket.size();
  }
}

PartitionedFile::PartitionedFile(std::string name,
                                 std::shared_ptr<Partitioner> partitioner,
                                 sim::Cluster* cluster, size_t btree_fanout)
    : File(std::move(name), std::move(partitioner), cluster) {
  partitions_.resize(num_partitions());
  for (auto& p : partitions_) {
    p.tree = std::make_unique<index::Btree<Record>>(btree_fanout);
  }
}

Status PartitionedFile::Append(const std::string& partition_key,
                               std::string key, Record record) {
  uint32_t partition = partitioner_->PartitionOf(partition_key);
  return AppendToPartition(partition, std::move(key), std::move(record));
}

Status PartitionedFile::AppendToPartition(uint32_t partition, std::string key,
                                          Record record) {
  if (sealed_) {
    return Status::Aborted("append to sealed file '" + name_ + "'");
  }
  if (partition >= partitions_.size()) {
    return Status::OutOfRange("partition out of range in file '" + name_ +
                              "'");
  }
  Partition& p = partitions_[partition];
  p.bytes += record.size();
  total_bytes_ += record.size();
  ++num_records_;
  access_stats_.appends.fetch_add(1, std::memory_order_relaxed);
  p.tree->Insert(std::move(key), std::move(record));
  return Status::OK();
}

Status PartitionedFile::CheckSealed() const {
  if (!sealed_) {
    return Status::Aborted("file '" + name_ + "' queried before Seal()");
  }
  return Status::OK();
}

Status PartitionedFile::CheckPartitionAndReplica(uint32_t partition,
                                                 uint32_t replica) const {
  if (partition >= partitions_.size()) {
    return Status::OutOfRange("partition out of range in file '" + name_ +
                              "'");
  }
  // Per-partition count: during a rebalance a flipped partition exposes
  // old+new replica slots, and the count may legally SHRINK between the
  // caller's check and the charge (flip/abort race) — NodeOfReplica folds
  // the index, so a stale-but-once-valid replica never crashes.
  const uint32_t count = ReplicaCountFor(partition);
  if (replica >= count) {
    return Status::OutOfRange("replica " + std::to_string(replica) +
                              " out of range in file '" + name_ +
                              "' (slots=" + std::to_string(count) + ")");
  }
  return Status::OK();
}

void PartitionedFile::CountEpochRead(uint32_t partition, uint32_t replica) {
  switch (placement_.AttributeRead(partition, replica)) {
    case ReadEpoch::kSteady:
      break;
    case ReadEpoch::kOldEpoch:
      access_stats_.old_epoch_reads.fetch_add(1, std::memory_order_relaxed);
      break;
    case ReadEpoch::kNewEpoch:
      access_stats_.new_epoch_reads.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

Status PartitionedFile::VerifyRecords(std::vector<Record>* out, size_t begin,
                                      const std::string& key,
                                      const std::string* range_hi,
                                      uint32_t partition, uint32_t replica) {
  if (!verify_checksums()) return Status::OK();
  for (size_t i = begin; i < out->size(); ++i) {
    if ((*out)[i].ChecksumValid()) continue;
    access_stats_.corrupt_reads.fetch_add(1, std::memory_order_relaxed);
    const std::string what = range_hi == nullptr
                                 ? "key '" + key + "'"
                                 : "range ['" + key + "', '" + *range_hi + "']";
    Status corrupt = Status::Corruption(
        "checksum mismatch reading " + what + " in file '" + name_ +
        "' partition " + std::to_string(partition) + " replica " +
        std::to_string(replica) + " (node " +
        std::to_string(NodeOfReplica(partition, replica)) + ")");
    out->resize(begin);  // never expose rotten bytes
    return corrupt;
  }
  return Status::OK();
}

Status PartitionedFile::VerifyBatch(std::vector<std::vector<Record>>* out,
                                    const std::vector<std::string>& keys,
                                    uint32_t partition, uint32_t replica) {
  if (!verify_checksums()) return Status::OK();
  for (size_t k = 0; k < out->size(); ++k) {
    for (const Record& r : (*out)[k]) {
      if (r.ChecksumValid()) continue;
      access_stats_.corrupt_reads.fetch_add(1, std::memory_order_relaxed);
      Status corrupt = Status::Corruption(
          "checksum mismatch reading batched key '" +
          (k < keys.size() ? keys[k] : std::string("?")) + "' in file '" +
          name_ + "' partition " + std::to_string(partition) + " replica " +
          std::to_string(replica) + " (node " +
          std::to_string(NodeOfReplica(partition, replica)) + ")");
      out->clear();  // the whole fused batch is unread
      return corrupt;
    }
  }
  return Status::OK();
}

void PartitionedFile::GetInPartitionOnReplicaAsync(
    sim::NodeId compute_node, uint32_t partition, uint32_t replica,
    const std::string& key, std::vector<Record>* out, sim::CompletionQueue* cq,
    AsyncReadDone done) {
  Status pre = CheckSealed();
  if (pre.ok()) pre = CheckPartitionAndReplica(partition, replica);
  if (!pre.ok()) {
    done(std::move(pre));
    return;
  }
  access_stats_.lookups.fetch_add(1, std::memory_order_relaxed);
  const size_t before = out->size();
  partitions_[partition].tree->Get(key, out);
  const size_t found = out->size() - before;
  size_t bytes = 0;
  for (size_t i = before; i < out->size(); ++i) bytes += (*out)[i].size();
  ChargeRead(ReadKind::kRandom, compute_node, NodeOfReplica(partition, replica),
             1, std::max(bytes, kMinProbeBytes), cq,
             [this, partition, replica, found, before, out, key = &key,
              done = std::move(done)](const sim::Completion& c) {
               Status s = c.status;
               if (s.ok()) {
                 CountEpochRead(partition, replica);
                 access_stats_.records_read.fetch_add(
                     found, std::memory_order_relaxed);
                 ApplyBitRot(c.outcome, out, before);
                 s = VerifyRecords(out, before, *key, nullptr, partition,
                                   replica);
               }
               done(std::move(s));
             });
}

void PartitionedFile::GetBatchInPartitionOnReplicaAsync(
    sim::NodeId compute_node, uint32_t partition, uint32_t replica,
    const std::vector<std::string>& keys, std::vector<std::vector<Record>>* out,
    sim::CompletionQueue* cq, AsyncReadDone done) {
  Status pre = CheckSealed();
  if (pre.ok()) pre = CheckPartitionAndReplica(partition, replica);
  if (!pre.ok()) {
    done(std::move(pre));
    return;
  }
  out->clear();
  out->resize(keys.size());
  if (keys.empty()) {
    done(Status::OK());
    return;
  }
  const Partition& p = partitions_[partition];
  size_t bytes = 0;
  size_t found = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    p.tree->Get(keys[i], &(*out)[i]);
    found += (*out)[i].size();
    for (const Record& r : (*out)[i]) bytes += r.size();
  }
  // Charge BEFORE exposing results as read: if the fused device operation
  // faults, the caller sees an error and must discard `out` wholesale.
  ChargeRead(ReadKind::kBatch, compute_node, NodeOfReplica(partition, replica),
             keys.size(), std::max(bytes, kMinProbeBytes), cq,
             [this, partition, replica, found, out, keys = &keys,
              done = std::move(done)](const sim::Completion& c) {
               Status s = c.status;
               if (s.ok()) {
                 CountEpochRead(partition, replica);
                 access_stats_.batched_gets.fetch_add(
                     1, std::memory_order_relaxed);
                 access_stats_.batched_keys.fetch_add(
                     keys->size(), std::memory_order_relaxed);
                 access_stats_.records_read.fetch_add(
                     found, std::memory_order_relaxed);
                 ApplyBitRotBatch(c.outcome, out, found);
                 s = VerifyBatch(out, *keys, partition, replica);
               }
               done(std::move(s));
             });
}

Status PartitionedFile::ChargeScan(sim::NodeId compute_node,
                                   uint32_t partition, uint64_t bytes,
                                   sim::ReadOutcome* outcome) {
  const uint64_t stream_bytes = std::max<uint64_t>(bytes, kMinProbeBytes);
  const uint32_t rf = ReplicaCountFor(partition);
  Status charge;
  // Replicas whose streams came back rotten; rewritten once a clean copy
  // has been streamed.
  std::vector<sim::NodeId> rotten_nodes;
  for (uint32_t r = 0; r < rf; ++r) {
    sim::NodeId storage_node = NodeOfReplica(partition, r);
    if (r + 1 < rf && cluster_->NodeIsDown(storage_node)) {
      access_stats_.failovers.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    *outcome = sim::ReadOutcome();
    charge = cluster_->ChargeSequentialRead(compute_node, storage_node,
                                            stream_bytes, outcome);
    if (charge.ok() && outcome->corrupted && verify_checksums()) {
      access_stats_.corrupt_reads.fetch_add(1, std::memory_order_relaxed);
      charge = Status::Corruption(
          "checksum mismatch scanning file '" + name_ + "' partition " +
          std::to_string(partition) + " replica " + std::to_string(r) +
          " (node " + std::to_string(storage_node) + ")");
      if (r + 1 < rf) {
        rotten_nodes.push_back(storage_node);
        access_stats_.failovers.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      break;  // every replica rotten or unreachable: surface kCorruption
    }
    if (charge.ok()) CountEpochRead(partition, r);
    if (charge.ok() || !charge.IsUnavailable() || r + 1 >= rf) break;
    access_stats_.failovers.fetch_add(1, std::memory_order_relaxed);
  }
  LH_RETURN_NOT_OK(charge);
  for (sim::NodeId bad : rotten_nodes) {
    if (cluster_->ChargeReplicatedWrite(compute_node, {bad}, stream_bytes)
            .ok()) {
      access_stats_.read_repairs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  access_stats_.partition_scans.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status PartitionedFile::ScanPartition(sim::NodeId compute_node,
                                      uint32_t partition,
                                      const RecordVisitor& visit) {
  return ScanPartitionKeyed(
      compute_node, partition,
      [&](const std::string&, const Record& record) { return visit(record); });
}

Status PartitionedFile::ScanPartitionKeyed(sim::NodeId compute_node,
                                           uint32_t partition,
                                           const KeyedRecordVisitor& visit) {
  LH_RETURN_NOT_OK(CheckSealed());
  if (partition >= partitions_.size()) {
    return Status::OutOfRange("partition out of range in file '" + name_ +
                              "'");
  }
  const Partition& p = partitions_[partition];
  sim::ReadOutcome outcome;
  LH_RETURN_NOT_OK(ChargeScan(compute_node, partition, p.bytes, &outcome));
  uint64_t visited = 0;
  // Verification off models an unprotected lake: a corrupt stream delivers
  // one bit-rotted record to the visitor instead of failing the scan.
  const bool deliver_rot = outcome.corrupted && !verify_checksums();
  const uint64_t victim =
      deliver_rot && p.tree->size() > 0
          ? outcome.corruption_entropy % p.tree->size()
          : 0;
  p.tree->Scan([&](const std::string& key, const Record& record) {
    uint64_t ordinal = visited++;
    if (deliver_rot && ordinal == victim) {
      return visit(key, record.CorruptedCopy(outcome.corruption_entropy));
    }
    return visit(key, record);
  });
  access_stats_.records_scanned.fetch_add(visited, std::memory_order_relaxed);
  return Status::OK();
}

void File::GetRangeInPartitionOnReplicaAsync(sim::NodeId, uint32_t, uint32_t,
                                             const std::string&,
                                             const std::string&, RecordVisitor,
                                             sim::CompletionQueue*,
                                             AsyncReadDone done) {
  done(Status::NotImplemented("file '" + name_ +
                              "' does not support range lookups; use a "
                              "BtreeFile"));
}

void BtreeFile::GetRangeInPartitionOnReplicaAsync(
    sim::NodeId compute_node, uint32_t partition, uint32_t replica,
    const std::string& lo, const std::string& hi, RecordVisitor visit,
    sim::CompletionQueue* cq, AsyncReadDone done) {
  Status pre = CheckSealed();
  if (pre.ok()) pre = CheckPartitionAndReplica(partition, replica);
  if (!pre.ok()) {
    done(std::move(pre));
    return;
  }
  access_stats_.range_lookups.fetch_add(1, std::memory_order_relaxed);
  const sim::NodeId storage_node = NodeOfReplica(partition, replica);
  // One random read for the index descent; the tree is walked once it
  // lands...
  ChargeRead(
      ReadKind::kRandom, compute_node, storage_node, 1, kMinProbeBytes, cq,
      [this, compute_node, partition, replica, storage_node, lo = &lo,
       hi = &hi, visit = std::move(visit), cq,
       done = std::move(done)](const sim::Completion& descent) mutable {
        if (!descent.status.ok()) {
          done(descent.status);
          return;
        }
        CountEpochRead(partition, replica);
        // Matches are BUFFERED rather than visited inline: the result is
        // only integrity-checked once every device charge of the operation
        // has landed (descent + leaf stream), and nothing may reach the
        // visitor before that verdict. Early-stop visitors simply stop
        // delivery.
        std::vector<Record> matched;
        uint64_t bytes = 0;
        partitions_[partition].tree->GetRange(
            *lo, *hi, [&](const std::string&, const Record& record) {
              bytes += record.size();
              matched.push_back(record);
              return true;
            });
        access_stats_.records_read.fetch_add(matched.size(),
                                             std::memory_order_relaxed);
        auto land_leaf = [this, partition, replica, lo, hi,
                          descent_outcome = descent.outcome,
                          matched = std::move(matched),
                          visit = std::move(visit), done = std::move(done)](
                             const sim::Completion& leaf) mutable {
          if (!leaf.status.ok()) {
            done(leaf.status);
            return;
          }
          sim::ReadOutcome outcome = descent_outcome;
          outcome.MergeFrom(leaf.outcome);
          ApplyBitRot(outcome, &matched, 0);
          Status verdict =
              VerifyRecords(&matched, 0, *lo, hi, partition, replica);
          if (verdict.ok()) {
            for (const Record& record : matched) {
              if (!visit(record)) break;
            }
          }
          done(std::move(verdict));
        };
        if (bytes == 0) {
          land_leaf(sim::Completion());  // no leaf chain to stream
          return;
        }
        // ...plus a sequential stream over the matching leaf chain.
        ChargeRead(ReadKind::kSequential, compute_node, storage_node, 1, bytes,
                   cq, std::move(land_leaf));
      });
}

Status BtreeFile::GetRangeAllPartitions(sim::NodeId compute_node,
                                        const std::string& lo,
                                        const std::string& hi,
                                        const RecordVisitor& visit) {
  for (uint32_t p = 0; p < num_partitions(); ++p) {
    LH_RETURN_NOT_OK(GetRangeInPartition(compute_node, p, lo, hi, visit));
  }
  return Status::OK();
}

}  // namespace lakeharbor::io
