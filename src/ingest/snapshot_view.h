#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ingest/streaming_file.h"
#include "io/file.h"

/// \file snapshot_view.h
/// Snapshot-consistent reads over a StreamingFile. A SnapshotView is an
/// io::File wrapper capturing (merged structure, log tail) at one pinned
/// LSN: bind it into a job's Dereferencer stages (deref stages hold a
/// shared_ptr<File> from build time) and every read of that job — blocking
/// or async — resolves against exactly the records appended up to the pin,
/// bit-identical at any concurrent merge progress. The pin participates in
/// the StreamingFile's merge gate and is released when the view dies (RAII),
/// so a forgotten view only delays merges, never corrupts them.
///
/// Placement accessors forward to the BACKING file so routing, failover,
/// and per-epoch read attribution behave as if the query had touched the
/// base file; device charges and AccessStats land on the base file too.
/// CacheableReads() is false — a cached bucket keyed by (file, partition,
/// key) could otherwise leak one snapshot's answer into another's.

namespace lakeharbor::ingest {

class SnapshotView final : public io::File {
 public:
  /// Use MakeSnapshotView — it pins before construction.
  SnapshotView(std::shared_ptr<StreamingFile> base, Lsn snapshot)
      : io::File(base->name() + "@s" + std::to_string(snapshot),
                 base->partitioner_ptr(), base->cluster()),
        base_(std::move(base)),
        snapshot_(snapshot),
        pinned_records_(base_->num_records()),
        pinned_bytes_(base_->total_bytes()) {}
  ~SnapshotView() override { base_->UnpinSnapshot(snapshot_); }

  Lsn snapshot_lsn() const { return snapshot_; }
  const std::shared_ptr<StreamingFile>& base() const { return base_; }

  sim::NodeId NodeOfPartition(uint32_t partition) const override {
    return base_->NodeOfPartition(partition);
  }
  sim::NodeId NodeOfReplica(uint32_t partition,
                            uint32_t replica) const override {
    return base_->NodeOfReplica(partition, replica);
  }
  uint32_t ReplicaCountFor(uint32_t partition) const override {
    return base_->ReplicaCountFor(partition);
  }
  sim::NodeId BroadcastOwner(uint32_t partition,
                             uint64_t fanout_epoch) const override {
    return base_->BroadcastOwner(partition, fanout_epoch);
  }

  /// Reads resolve at the pinned LSN against the base file. A blocking
  /// read is the async call with a null `cq` (see io::File).
  void GetInPartitionOnReplicaAsync(sim::NodeId compute_node,
                                    uint32_t partition, uint32_t replica,
                                    const std::string& key,
                                    std::vector<io::Record>* out,
                                    sim::CompletionQueue* cq,
                                    AsyncReadDone done) override;
  void GetBatchInPartitionOnReplicaAsync(
      sim::NodeId compute_node, uint32_t partition, uint32_t replica,
      const std::vector<std::string>& keys,
      std::vector<std::vector<io::Record>>* out, sim::CompletionQueue* cq,
      AsyncReadDone done) override;
  Status ScanPartition(sim::NodeId compute_node, uint32_t partition,
                       const io::RecordVisitor& visit) override;

  /// Captured at pin time (the pin IS the tail, so these are exact for the
  /// snapshot, not approximations).
  uint64_t num_records() const override { return pinned_records_; }
  uint64_t total_bytes() const override { return pinned_bytes_; }
  uint64_t PartitionBytes(uint32_t partition) const override {
    return base_->PartitionBytes(partition);
  }
  bool CacheableReads() const override { return false; }

 private:
  std::shared_ptr<StreamingFile> base_;
  Lsn snapshot_;
  uint64_t pinned_records_;
  uint64_t pinned_bytes_;
};

/// Pin the base file's current tail and wrap it. The view keeps the base
/// alive; destroying the view releases the pin.
std::shared_ptr<SnapshotView> MakeSnapshotView(
    std::shared_ptr<StreamingFile> base);

}  // namespace lakeharbor::ingest
