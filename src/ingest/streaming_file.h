#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status_or.h"
#include "index/delta_merge.h"
#include "io/partitioned_file.h"
#include "rede/metrics.h"

/// \file streaming_file.h
/// The streaming-ingest subsystem's file type (log-structured maintenance,
/// DESIGN §16). A sealed PartitionedFile stops being immutable: records keep
/// arriving through StreamAppend, which assigns each a global monotone LSN,
/// charges the durable op-log write (group-committed, replicated to the
/// partition's replica set), and stages the record in an in-memory
/// per-partition *delta index* belonging to the current *epoch*. Epochs seal
/// by record-count / byte / age thresholds; sealed epochs form a FIFO
/// backlog that the ingest::LogMerger folds into the B-trees as
/// lowest-priority kMaintenance jobs.
///
/// Read semantics: every read is parameterized by a snapshot LSN S and
/// returns exactly the records with lsn <= S — the merged B-tree plus the
/// filtered unmerged tail. Direct reads on the file use S = "latest"
/// (everything appended up to the instant the read captures its tail).
/// Pinned snapshots (SnapshotView) get bit-identical answers at ANY merge
/// progress thanks to two invariants:
///   1. FIFO folds + the min-active-snapshot merge gate: an epoch may fold
///      only when no pinned snapshot precedes its max LSN, so the B-tree
///      never contains a record invisible to any live snapshot — tree
///      results need no LSN filter, only delta-tail entries are filtered.
///   2. The B-tree keeps duplicate keys in insertion order and folds replay
///      LSN order (index::FoldDeltaBucket), so merged results are ordered
///      exactly as a quiesced single-pass load would order them; for one
///      key, merged records always precede unmerged ones (their LSNs are
///      strictly older), so "tree results then tail results" IS LSN order.
///
/// Cost model: the delta index is memory-resident — tail reads charge
/// nothing beyond the tree probe; durability is paid at append time (op-log
/// replicated write) and structure maintenance at fold time (LogMerger).
/// CacheableReads() is false: a streaming answer depends on merge progress
/// and snapshot, so it must never enter the executor's record cache.

namespace lakeharbor::ingest {

/// Global log sequence number. LSN 0 means "nothing streamed".
using Lsn = uint64_t;

/// Snapshot value meaning "everything appended" — the latest-read LSN.
inline constexpr Lsn kLsnLatest = std::numeric_limits<Lsn>::max();

struct IngestOptions {
  /// Seal the open epoch once it holds this many records...
  uint64_t seal_epoch_records = 4096;
  /// ...or this many payload bytes...
  uint64_t seal_epoch_bytes = 1ull << 20;
  /// ...or once it is this old (checked at the next append and by the
  /// LogMerger pump's idle polls, so a quiet stream still seals; 0 = no
  /// age threshold, epochs seal on size alone or via SealOpenEpoch()).
  uint64_t seal_epoch_age_us = 0;
  /// Group-commit page of the durable op-log: appends buffer per partition
  /// segment and one replicated write is charged per filled page. A failed
  /// page write rejects the triggering append and leaves the page buffered
  /// (crash-free: the record is simply not accepted; retrying it re-arms
  /// the same flush).
  uint64_t log_page_bytes = 4096;
};

/// One op-log epoch: a contiguous LSN range with per-partition delta
/// buckets. Batch-level fields are guarded by the file's ingest mutex;
/// each PartitionDelta is guarded by that partition's rwlock.
struct EpochBatch {
  uint64_t epoch = 0;
  Lsn min_lsn = 0;
  Lsn max_lsn = 0;
  uint64_t records = 0;
  uint64_t bytes = 0;
  int64_t opened_us = 0;
  bool sealed = false;

  struct PartitionDelta {
    index::DeltaBucket<io::Record> bucket;
    uint64_t records = 0;
    uint64_t bytes = 0;
    /// Set (under the partition's exclusive lock) once the bucket has been
    /// folded into the B-tree; readers then take their answer for this
    /// (epoch, partition) from the tree alone.
    bool folded = false;
  };
  std::vector<PartitionDelta> parts;
};

/// Per-partition ingest counters (satellite of MetricsSnapshot's per-job
/// scalars: the file keeps the per-partition breakdown).
struct PartitionIngestStats {
  uint64_t records_appended = 0;
  uint64_t bytes_appended = 0;
  uint64_t unmerged_records = 0;
  uint64_t unmerged_bytes = 0;
};

/// Point-in-time ingest state of one StreamingFile.
struct IngestFileStats {
  uint64_t records_appended = 0;
  uint64_t bytes_appended = 0;
  uint64_t log_pages_flushed = 0;
  uint64_t epochs_sealed = 0;
  uint64_t epochs_merged = 0;
  /// Sealed-but-unmerged backlog — the index-behind-log lag.
  uint64_t backlog_epochs = 0;
  uint64_t backlog_records = 0;
  uint64_t backlog_bytes = 0;
  uint64_t open_epoch_records = 0;
  Lsn tail_lsn = 0;
  Lsn merged_lsn = 0;
  std::vector<PartitionIngestStats> partitions;
};

class StreamingFile : public io::PartitionedFile {
 public:
  StreamingFile(std::string name, std::shared_ptr<io::Partitioner> partitioner,
                sim::Cluster* cluster, IngestOptions options,
                size_t btree_fanout = 64);

  /// Append one record AFTER Seal(): assigns the next LSN, charges the
  /// op-log write (group-committed — see IngestOptions::log_page_bytes),
  /// and stages the record in the open epoch's delta bucket. Thresholds may
  /// seal the open epoch as a side effect. On a failed log-page charge the
  /// record is NOT applied and the same flush re-arms on retry.
  StatusOr<Lsn> StreamAppend(const std::string& partition_key, std::string key,
                             io::Record record,
                             rede::ExecMetricsCounters* metrics = nullptr);

  /// Seal the open epoch regardless of thresholds (no-op when it is empty).
  /// Returns the sealed epoch id.
  std::optional<uint64_t> SealOpenEpoch(
      rede::ExecMetricsCounters* metrics = nullptr);

  /// Seal the open epoch if it has reached seal_epoch_age_us (no-op when
  /// the age threshold is 0 or there is no open epoch that old). Lets the
  /// merger seal a stream that stopped appending. True when it sealed.
  bool SealAgedEpoch();

  /// Charge the op-log's partially-filled group-commit pages (an fsync of
  /// every partition segment). Benches call this between phases so baseline
  /// and streamed runs account identical durable bytes.
  Status FlushOpLog();

  /// --- Snapshot registry ----------------------------------------------------

  /// Pin the current tail LSN. While pinned, no epoch whose max LSN exceeds
  /// it may fold (the merge gate), so reads at the pinned LSN stay
  /// bit-identical at any merge progress. Every Pin must be matched by an
  /// Unpin (SnapshotView does this via RAII).
  Lsn PinSnapshot();
  void UnpinSnapshot(Lsn snapshot);
  /// Smallest pinned snapshot, or kLsnLatest when none are pinned.
  Lsn MinPinnedSnapshot() const;

  /// --- Merger interface (ingest::LogMerger) --------------------------------

  /// Oldest sealed-but-unmerged epoch, or nullptr when the backlog is empty.
  std::shared_ptr<EpochBatch> NextUnmergedEpoch() const;

  /// The merge gate: true when `batch` is the oldest unmerged epoch AND no
  /// pinned snapshot precedes its max LSN.
  bool CanFold(const EpochBatch& batch) const;

  /// Fold one partition's delta bucket into its B-tree (exclusive lock held
  /// for the duration; concurrent readers of other partitions unaffected).
  /// Idempotent: an already-folded bucket returns {0, 0}, which is what
  /// lets a resubmitted merge job resume without double-applying.
  index::FoldResult FoldBucket(const std::shared_ptr<EpochBatch>& batch,
                               uint32_t partition);

  /// After every partition of the oldest epoch folded: pop it from the
  /// backlog and advance the merged LSN watermark.
  Status FinishEpochMerge(const std::shared_ptr<EpochBatch>& batch,
                          rede::ExecMetricsCounters* metrics = nullptr);

  /// --- Observability --------------------------------------------------------

  Lsn tail_lsn() const;
  Lsn merged_lsn() const {
    return merged_lsn_.load(std::memory_order_acquire);
  }
  uint64_t backlog_epochs() const;
  IngestFileStats ingest_stats() const;

  std::shared_ptr<io::Partitioner> partitioner_ptr() const {
    return partitioner_;
  }

  /// --- Snapshot-parameterized reads ----------------------------------------
  ///
  /// The PartitionedFile read surface with an explicit snapshot LSN; the
  /// File overrides below bind S = kLsnLatest, SnapshotView binds its
  /// pinned LSN. Charges, counters, bit-rot, and verification mirror the
  /// base paths exactly and apply to the TREE portion of the result (the
  /// device-resident bytes); tail records are memory-resident, never cross
  /// a platter, and are appended after the verification verdict, never
  /// before: the tail rides in the read's landing closure. A blocking read
  /// is the async call with a null `cq` (see io::File).

  void GetInPartitionOnReplicaAsyncAt(Lsn snapshot, sim::NodeId compute_node,
                                      uint32_t partition, uint32_t replica,
                                      const std::string& key,
                                      std::vector<io::Record>* out,
                                      sim::CompletionQueue* cq,
                                      AsyncReadDone done);
  void GetBatchInPartitionOnReplicaAsyncAt(
      Lsn snapshot, sim::NodeId compute_node, uint32_t partition,
      uint32_t replica, const std::vector<std::string>& keys,
      std::vector<std::vector<io::Record>>* out, sim::CompletionQueue* cq,
      AsyncReadDone done);
  Status ScanPartitionKeyedAt(Lsn snapshot, sim::NodeId compute_node,
                              uint32_t partition,
                              const KeyedRecordVisitor& visit);

  /// --- File overrides (latest-read semantics) ------------------------------

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

  uint64_t num_records() const override {
    return PartitionedFile::num_records() +
           streamed_records_.load(std::memory_order_relaxed);
  }
  uint64_t total_bytes() const override {
    return PartitionedFile::total_bytes() +
           streamed_bytes_.load(std::memory_order_relaxed);
  }
  /// Loaded bytes are frozen at Seal(); folded and tail bytes are shadow
  /// atomics, so this is race-free under concurrent append/merge (the base
  /// per-partition byte counter is NOT updated by folds).
  uint64_t PartitionBytes(uint32_t partition) const override;

  bool PartitionHasUnmergedTail(uint32_t partition) const override;
  bool CacheableReads() const override { return false; }

 private:
  /// Per-partition ingest state. The rwlock guards this partition's B-tree
  /// AND its delta buckets across every epoch: readers hold it shared,
  /// appends and folds hold it exclusive.
  struct PartitionIngest {
    mutable std::shared_mutex mu;
    std::atomic<uint64_t> tail_records{0};
    std::atomic<uint64_t> tail_bytes{0};
    std::atomic<uint64_t> folded_bytes{0};
    std::atomic<uint64_t> appended_records{0};
    std::atomic<uint64_t> appended_bytes{0};
    /// Group-commit buffer of this partition's op-log segment (ingest mu).
    uint64_t pending_log_bytes = 0;
  };

  /// Copy of the unmerged batch list (sealed FIFO + open), taken under the
  /// ingest mutex. Any record NOT in the copy was appended after the
  /// capture instant and necessarily carries an LSN above any snapshot
  /// pinned before the read began.
  std::vector<std::shared_ptr<EpochBatch>> SnapshotBatches() const;

  void EnsureOpenEpochLocked(int64_t now_us);
  /// The open epoch has reached the age threshold (ingest mutex held).
  bool OpenEpochAgedLocked(int64_t now_us) const;
  void SealOpenLocked(rede::ExecMetricsCounters* metrics);

  mutable std::mutex ingest_mu_;
  IngestOptions options_;
  Lsn next_lsn_ = 1;
  uint64_t next_epoch_ = 1;
  std::deque<std::shared_ptr<EpochBatch>> backlog_;
  std::shared_ptr<EpochBatch> open_;
  std::multiset<Lsn> pins_;
  uint64_t log_pages_flushed_ = 0;

  std::atomic<Lsn> merged_lsn_{0};
  std::atomic<uint64_t> epochs_sealed_{0};
  std::atomic<uint64_t> epochs_merged_{0};
  std::atomic<uint64_t> streamed_records_{0};
  std::atomic<uint64_t> streamed_bytes_{0};

  std::vector<std::unique_ptr<PartitionIngest>> ingest_parts_;
};

}  // namespace lakeharbor::ingest
