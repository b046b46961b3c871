#include "io/partitioned_file.h"

#include <algorithm>
#include <utility>

namespace lakeharbor::io {

namespace {
/// Minimum bytes charged for a device probe, even when the lookup misses:
/// reading *nothing* still costs a page-sized I/O.
constexpr size_t kMinProbeBytes = 64;

/// Apply a corrupt read verdict to the records this operation returned:
/// the entropy picks one victim among [begin, records->size()) and flips a
/// bit in a COPY of its payload (the stored tree data is never touched —
/// the simulation models rot on the wire/platter, not in the source of
/// truth). A read that returned nothing has no payload to rot.
void ApplyBitRot(const sim::ReadOutcome& outcome, std::vector<Record>* records,
                 size_t begin) {
  if (!outcome.corrupted || records->size() <= begin) return;
  const size_t victim =
      begin + static_cast<size_t>(outcome.corruption_entropy %
                                  (records->size() - begin));
  (*records)[victim] =
      (*records)[victim].CorruptedCopy(outcome.corruption_entropy);
}

/// Batched analogue: the victim index counts across the flattened buckets.
void ApplyBitRotBatch(const sim::ReadOutcome& outcome,
                      std::vector<std::vector<Record>>* out, size_t found) {
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
}  // namespace

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
  // caller's check and the charge (flip/abort race) — ChargeLookup folds
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

Status PartitionedFile::ChargeLookup(sim::NodeId compute_node,
                                     uint32_t partition, uint32_t replica,
                                     size_t result_bytes,
                                     size_t result_records,
                                     sim::ReadOutcome* outcome) {
  sim::NodeId storage_node = NodeOfReplica(partition, replica);
  LH_RETURN_NOT_OK(cluster_->ChargeRandomRead(
      compute_node, storage_node, std::max(result_bytes, kMinProbeBytes),
      outcome));
  CountEpochRead(partition, replica);
  access_stats_.records_read.fetch_add(result_records,
                                       std::memory_order_relaxed);
  return Status::OK();
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

Status PartitionedFile::Get(sim::NodeId compute_node, const Pointer& ptr,
                            std::vector<Record>* out) {
  LH_RETURN_NOT_OK(CheckSealed());
  if (!ptr.has_partition) {
    return Status::InvalidArgument(
        "Get on file '" + name_ +
        "' requires partition information (broadcast pointers are resolved "
        "by the executor)");
  }
  uint32_t partition = partitioner_->PartitionOf(ptr.partition_key);
  return GetInPartition(compute_node, partition, ptr.key, out);
}

Status PartitionedFile::GetInPartition(sim::NodeId compute_node,
                                       uint32_t partition,
                                       const std::string& key,
                                       std::vector<Record>* out) {
  return GetInPartitionOnReplica(compute_node, partition, /*replica=*/0, key,
                                 out);
}

Status PartitionedFile::GetInPartitionOnReplica(sim::NodeId compute_node,
                                                uint32_t partition,
                                                uint32_t replica,
                                                const std::string& key,
                                                std::vector<Record>* out) {
  LH_RETURN_NOT_OK(CheckSealed());
  LH_RETURN_NOT_OK(CheckPartitionAndReplica(partition, replica));
  access_stats_.lookups.fetch_add(1, std::memory_order_relaxed);
  size_t before = out->size();
  partitions_[partition].tree->Get(key, out);
  size_t found = out->size() - before;
  size_t bytes = 0;
  for (size_t i = before; i < out->size(); ++i) bytes += (*out)[i].size();
  sim::ReadOutcome outcome;
  LH_RETURN_NOT_OK(
      ChargeLookup(compute_node, partition, replica, bytes, found, &outcome));
  ApplyBitRot(outcome, out, before);
  return VerifyRecords(out, before, key, nullptr, partition, replica);
}

Status File::GetBatchInPartition(sim::NodeId compute_node, uint32_t partition,
                                 const std::vector<std::string>& keys,
                                 std::vector<std::vector<Record>>* out) {
  out->clear();
  out->resize(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    LH_RETURN_NOT_OK(
        GetInPartition(compute_node, partition, keys[i], &(*out)[i]));
  }
  return Status::OK();
}

Status PartitionedFile::GetBatchInPartition(
    sim::NodeId compute_node, uint32_t partition,
    const std::vector<std::string>& keys,
    std::vector<std::vector<Record>>* out) {
  return GetBatchInPartitionOnReplica(compute_node, partition, /*replica=*/0,
                                      keys, out);
}

Status PartitionedFile::GetBatchInPartitionOnReplica(
    sim::NodeId compute_node, uint32_t partition, uint32_t replica,
    const std::vector<std::string>& keys,
    std::vector<std::vector<Record>>* out) {
  LH_RETURN_NOT_OK(CheckSealed());
  LH_RETURN_NOT_OK(CheckPartitionAndReplica(partition, replica));
  out->clear();
  out->resize(keys.size());
  if (keys.empty()) return Status::OK();
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
  sim::NodeId storage_node = NodeOfReplica(partition, replica);
  sim::ReadOutcome outcome;
  LH_RETURN_NOT_OK(cluster_->ChargeBatchRead(compute_node, storage_node,
                                             keys.size(),
                                             std::max(bytes, kMinProbeBytes),
                                             &outcome));
  CountEpochRead(partition, replica);
  access_stats_.batched_gets.fetch_add(1, std::memory_order_relaxed);
  access_stats_.batched_keys.fetch_add(keys.size(), std::memory_order_relaxed);
  access_stats_.records_read.fetch_add(found, std::memory_order_relaxed);
  ApplyBitRotBatch(outcome, out, found);
  return VerifyBatch(out, keys, partition, replica);
}

void PartitionedFile::GetInPartitionOnReplicaAsync(
    sim::NodeId compute_node, uint32_t partition, uint32_t replica,
    const std::string& key, std::vector<Record>* out, sim::CompletionQueue* cq,
    AsyncReadDone done) {
  if (cq == nullptr) {
    done(GetInPartitionOnReplica(compute_node, partition, replica, key, out));
    return;
  }
  Status pre = CheckSealed();
  if (pre.ok()) pre = CheckPartitionAndReplica(partition, replica);
  if (!pre.ok()) {
    done(std::move(pre));
    return;
  }
  access_stats_.lookups.fetch_add(1, std::memory_order_relaxed);
  size_t before = out->size();
  partitions_[partition].tree->Get(key, out);
  size_t found = out->size() - before;
  size_t bytes = 0;
  for (size_t i = before; i < out->size(); ++i) bytes += (*out)[i].size();
  sim::NodeId storage_node = NodeOfReplica(partition, replica);
  cluster_->SubmitChargeRandomRead(
      compute_node, storage_node, std::max(bytes, kMinProbeBytes),
      sim::MakeCompletionCallbackTag(
          [this, partition, replica, found, before, out, key,
           done = std::move(done)](const sim::Completion& c) {
            Status s = c.status;
            if (s.ok()) {
              CountEpochRead(partition, replica);
              access_stats_.records_read.fetch_add(found,
                                                   std::memory_order_relaxed);
              ApplyBitRot(c.outcome, out, before);
              s = VerifyRecords(out, before, key, nullptr, partition,
                                replica);
            }
            done(std::move(s));
          }),
      cq);
}

void PartitionedFile::GetBatchInPartitionOnReplicaAsync(
    sim::NodeId compute_node, uint32_t partition, uint32_t replica,
    const std::vector<std::string>& keys, std::vector<std::vector<Record>>* out,
    sim::CompletionQueue* cq, AsyncReadDone done) {
  if (cq == nullptr) {
    done(GetBatchInPartitionOnReplica(compute_node, partition, replica, keys,
                                      out));
    return;
  }
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
  const size_t num_keys = keys.size();
  sim::NodeId storage_node = NodeOfReplica(partition, replica);
  // `keys` is captured by pointer: the async contract guarantees it stays
  // valid until `done` fires.
  cluster_->SubmitChargeBatchRead(
      compute_node, storage_node, num_keys, std::max(bytes, kMinProbeBytes),
      sim::MakeCompletionCallbackTag(
          [this, partition, replica, found, num_keys, out, keys_ptr = &keys,
           done = std::move(done)](const sim::Completion& c) {
            Status s = c.status;
            if (s.ok()) {
              CountEpochRead(partition, replica);
              access_stats_.batched_gets.fetch_add(1,
                                                   std::memory_order_relaxed);
              access_stats_.batched_keys.fetch_add(num_keys,
                                                   std::memory_order_relaxed);
              access_stats_.records_read.fetch_add(found,
                                                   std::memory_order_relaxed);
              ApplyBitRotBatch(c.outcome, out, found);
              s = VerifyBatch(out, *keys_ptr, partition, replica);
            }
            done(std::move(s));
          }),
      cq);
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
  // Scans fail over at the io layer (no executor involvement): a down
  // primary is skipped in favor of the next live replica, a replica whose
  // charge comes back kUnavailable hands the scan to the next one, and —
  // with verification on — a replica whose stream fails its checksums is
  // treated exactly like a dead one. The charge happens BEFORE any record
  // is visited, so switching replicas never double-delivers records.
  const uint32_t rf = ReplicaCountFor(partition);
  Status charge;
  sim::ReadOutcome outcome;
  // Replicas whose streams came back rotten; rewritten in place (read
  // repair) once a clean copy has been streamed.
  std::vector<sim::NodeId> rotten_nodes;
  for (uint32_t r = 0; r < rf; ++r) {
    sim::NodeId storage_node = NodeOfReplica(partition, r);
    if (r + 1 < rf && cluster_->NodeIsDown(storage_node)) {
      access_stats_.failovers.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    outcome = sim::ReadOutcome();
    charge = cluster_->ChargeSequentialRead(
        compute_node, storage_node,
        std::max<uint64_t>(p.bytes, kMinProbeBytes), &outcome);
    if (charge.ok() && outcome.corrupted && verify_checksums()) {
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
  // Read repair: the clean stream just read is the source of truth — push
  // it back over each rotten replica so the rot does not linger. Repair is
  // best-effort (a faulted write leaves the replica for the scrubber).
  for (sim::NodeId bad : rotten_nodes) {
    if (cluster_
            ->ChargeReplicatedWrite(compute_node, {bad},
                                    std::max<uint64_t>(p.bytes,
                                                       kMinProbeBytes))
            .ok()) {
      access_stats_.read_repairs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  access_stats_.partition_scans.fetch_add(1, std::memory_order_relaxed);
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

Status File::GetRangeInPartition(sim::NodeId, uint32_t, const std::string&,
                                 const std::string&, const RecordVisitor&) {
  return Status::NotImplemented("file '" + name_ +
                                "' does not support range lookups; use a "
                                "BtreeFile");
}

Status BtreeFile::GetRangeInPartition(sim::NodeId compute_node,
                                      uint32_t partition, const std::string& lo,
                                      const std::string& hi,
                                      const RecordVisitor& visit) {
  return GetRangeInPartitionOnReplica(compute_node, partition, /*replica=*/0,
                                      lo, hi, visit);
}

Status BtreeFile::GetRangeInPartitionOnReplica(sim::NodeId compute_node,
                                               uint32_t partition,
                                               uint32_t replica,
                                               const std::string& lo,
                                               const std::string& hi,
                                               const RecordVisitor& visit) {
  LH_RETURN_NOT_OK(CheckSealed());
  LH_RETURN_NOT_OK(CheckPartitionAndReplica(partition, replica));
  access_stats_.range_lookups.fetch_add(1, std::memory_order_relaxed);
  sim::NodeId storage_node = NodeOfReplica(partition, replica);
  // One random read for the index descent...
  sim::ReadOutcome outcome;
  LH_RETURN_NOT_OK(cluster_->ChargeRandomRead(compute_node, storage_node,
                                              kMinProbeBytes, &outcome));
  CountEpochRead(partition, replica);
  // Matches are BUFFERED rather than visited inline: the result is only
  // integrity-checked once every device charge of the operation has landed
  // (descent + leaf stream), and nothing may reach the visitor before that
  // verdict. Early-stop visitors simply stop delivery.
  std::vector<Record> matched;
  uint64_t bytes = 0;
  partitions_[partition].tree->GetRange(
      lo, hi, [&](const std::string&, const Record& record) {
        bytes += record.size();
        matched.push_back(record);
        return true;
      });
  access_stats_.records_read.fetch_add(matched.size(),
                                       std::memory_order_relaxed);
  // ...plus a sequential stream over the matching leaf chain.
  if (bytes > 0) {
    sim::ReadOutcome leaf_outcome;
    LH_RETURN_NOT_OK(cluster_->ChargeSequentialRead(
        compute_node, storage_node, bytes, &leaf_outcome));
    outcome.MergeFrom(leaf_outcome);
  }
  ApplyBitRot(outcome, &matched, 0);
  LH_RETURN_NOT_OK(
      VerifyRecords(&matched, 0, lo, &hi, partition, replica));
  for (const Record& record : matched) {
    if (!visit(record)) break;
  }
  return Status::OK();
}

void BtreeFile::GetRangeInPartitionOnReplicaAsync(
    sim::NodeId compute_node, uint32_t partition, uint32_t replica,
    const std::string& lo, const std::string& hi, RecordVisitor visit,
    sim::CompletionQueue* cq, AsyncReadDone done) {
  if (cq == nullptr) {
    done(GetRangeInPartitionOnReplica(compute_node, partition, replica, lo, hi,
                                      visit));
    return;
  }
  Status pre = CheckSealed();
  if (pre.ok()) pre = CheckPartitionAndReplica(partition, replica);
  if (!pre.ok()) {
    done(std::move(pre));
    return;
  }
  access_stats_.range_lookups.fetch_add(1, std::memory_order_relaxed);
  sim::NodeId storage_node = NodeOfReplica(partition, replica);
  // Stage 1: the index-descent random read. The tree is only walked once
  // the descent charge lands, mirroring the blocking order; like the
  // blocking path, matches are buffered and only delivered after the leaf
  // stream's charge has landed and the merged outcome passed verification.
  std::string lo_copy = lo;
  std::string hi_copy = hi;
  cluster_->SubmitChargeRandomRead(
      compute_node, storage_node, kMinProbeBytes,
      sim::MakeCompletionCallbackTag(
          [this, compute_node, partition, replica, storage_node,
           lo = std::move(lo_copy), hi = std::move(hi_copy),
           visit = std::move(visit), cq,
           done = std::move(done)](const sim::Completion& c) mutable {
            if (!c.status.ok()) {
              done(c.status);
              return;
            }
            CountEpochRead(partition, replica);
            auto matched = std::make_shared<std::vector<Record>>();
            uint64_t bytes = 0;
            partitions_[partition].tree->GetRange(
                lo, hi, [&](const std::string&, const Record& record) {
                  bytes += record.size();
                  matched->push_back(record);
                  return true;
                });
            access_stats_.records_read.fetch_add(matched->size(),
                                                 std::memory_order_relaxed);
            auto finish = [this, partition, replica, lo = std::move(lo),
                           hi = std::move(hi),
                           matched](const sim::ReadOutcome& outcome,
                                    const RecordVisitor& deliver) {
              ApplyBitRot(outcome, matched.get(), 0);
              Status verdict = VerifyRecords(matched.get(), 0, lo, &hi,
                                             partition, replica);
              if (verdict.ok()) {
                for (const Record& record : *matched) {
                  if (!deliver(record)) break;
                }
              }
              return verdict;
            };
            if (bytes == 0) {
              done(finish(c.outcome, visit));
              return;
            }
            // Stage 2: the leaf-chain sequential stream.
            sim::ReadOutcome descent_outcome = c.outcome;
            cluster_->SubmitChargeSequentialRead(
                compute_node, storage_node, bytes,
                sim::MakeCompletionCallbackTag(
                    [descent_outcome, finish = std::move(finish),
                     visit = std::move(visit), done = std::move(done)](
                        const sim::Completion& leaf) {
                      if (!leaf.status.ok()) {
                        done(leaf.status);
                        return;
                      }
                      sim::ReadOutcome merged = descent_outcome;
                      merged.MergeFrom(leaf.outcome);
                      done(finish(merged, visit));
                    }),
                cq);
          }),
      cq);
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
