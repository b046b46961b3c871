#include "ingest/streaming_file.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/clock.h"
#include "common/logging.h"

namespace lakeharbor::ingest {

StreamingFile::StreamingFile(std::string name,
                             std::shared_ptr<io::Partitioner> partitioner,
                             sim::Cluster* cluster, IngestOptions options,
                             size_t btree_fanout)
    : io::PartitionedFile(std::move(name), std::move(partitioner), cluster,
                          btree_fanout),
      options_(options) {
  LH_CHECK(options_.log_page_bytes > 0);
  ingest_parts_.reserve(num_partitions());
  for (uint32_t p = 0; p < num_partitions(); ++p) {
    ingest_parts_.push_back(std::make_unique<PartitionIngest>());
  }
}

void StreamingFile::EnsureOpenEpochLocked(int64_t now_us) {
  if (open_ != nullptr) return;
  open_ = std::make_shared<EpochBatch>();
  open_->epoch = next_epoch_++;
  open_->opened_us = now_us;
  open_->parts.resize(num_partitions());
}

bool StreamingFile::OpenEpochAgedLocked(int64_t now_us) const {
  return open_ != nullptr && options_.seal_epoch_age_us > 0 &&
         now_us - open_->opened_us >=
             static_cast<int64_t>(options_.seal_epoch_age_us);
}

void StreamingFile::SealOpenLocked(rede::ExecMetricsCounters* metrics) {
  LH_CHECK(open_ != nullptr && open_->records > 0);
  open_->sealed = true;
  backlog_.push_back(std::move(open_));
  open_.reset();
  epochs_sealed_.fetch_add(1, std::memory_order_relaxed);
  if (metrics != nullptr) {
    metrics->epochs_sealed.fetch_add(1, std::memory_order_relaxed);
  }
}

StatusOr<Lsn> StreamingFile::StreamAppend(const std::string& partition_key,
                                          std::string key, io::Record record,
                                          rede::ExecMetricsCounters* metrics) {
  if (!sealed()) {
    return Status::Aborted("stream append to file '" + name_ +
                           "' before Seal() — finish the initial load first");
  }
  const uint32_t partition = partitioner_->PartitionOf(partition_key);
  if (partition >= partitions_.size()) {
    return Status::OutOfRange("partition out of range in file '" + name_ +
                              "'");
  }
  const size_t sz = record.size();
  PartitionIngest& ps = *ingest_parts_[partition];

  // Durability first: the append joins its partition segment's group-commit
  // page, and a filled page charges ONE replicated write to the partition's
  // replica set. A failed page charge rejects this append (nothing was
  // applied) and re-buffers the earlier residents, so a retry of the same
  // record re-arms the identical flush — crash-free by construction.
  uint64_t flush_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    const uint64_t pending = ps.pending_log_bytes + sz;
    if (pending >= options_.log_page_bytes) {
      flush_bytes = pending;
      ps.pending_log_bytes = 0;
    } else {
      ps.pending_log_bytes = pending;
    }
  }
  if (flush_bytes > 0) {
    Status logged = cluster_->ChargeReplicatedWrite(
        NodeOfPartition(partition), placement().ReplicaNodes(partition),
        flush_bytes);
    if (!logged.ok()) {
      std::lock_guard<std::mutex> lock(ingest_mu_);
      ps.pending_log_bytes += flush_bytes - sz;
      return logged.WithContext("op-log flush of file '" + name_ +
                                "' partition " + std::to_string(partition));
    }
    std::lock_guard<std::mutex> lock(ingest_mu_);
    ++log_pages_flushed_;
  }

  // Apply: the LSN assignment, epoch bookkeeping, and bucket insert all
  // happen under the partition's EXCLUSIVE lock with the ingest mutex
  // nested inside. The nesting is what makes two invariants cheap: a pinned
  // tail LSN can never precede an unapplied record (pin takes the ingest
  // mutex), and a sealing append can never race a half-applied record into
  // an epoch the merger already owns.
  Lsn lsn = 0;
  {
    std::unique_lock<std::shared_mutex> part_lock(ps.mu);
    std::lock_guard<std::mutex> lock(ingest_mu_);
    const int64_t now_us = NowMicros();
    if (OpenEpochAgedLocked(now_us)) SealOpenLocked(metrics);
    EnsureOpenEpochLocked(now_us);
    lsn = next_lsn_++;
    EpochBatch& batch = *open_;
    if (batch.records == 0) batch.min_lsn = lsn;
    batch.max_lsn = lsn;
    ++batch.records;
    batch.bytes += sz;
    EpochBatch::PartitionDelta& pd = batch.parts[partition];
    pd.bucket[std::move(key)].push_back(
        index::DeltaEntry<io::Record>{lsn, std::move(record)});
    ++pd.records;
    pd.bytes += sz;
    if (batch.records >= options_.seal_epoch_records ||
        batch.bytes >= options_.seal_epoch_bytes) {
      SealOpenLocked(metrics);
    }
  }
  ps.tail_records.fetch_add(1, std::memory_order_relaxed);
  ps.tail_bytes.fetch_add(sz, std::memory_order_relaxed);
  ps.appended_records.fetch_add(1, std::memory_order_relaxed);
  ps.appended_bytes.fetch_add(sz, std::memory_order_relaxed);
  streamed_records_.fetch_add(1, std::memory_order_relaxed);
  streamed_bytes_.fetch_add(sz, std::memory_order_relaxed);
  access_stats_.appends.fetch_add(1, std::memory_order_relaxed);
  if (metrics != nullptr) {
    metrics->records_appended.fetch_add(1, std::memory_order_relaxed);
    metrics->bytes_appended.fetch_add(sz, std::memory_order_relaxed);
  }
  return lsn;
}

std::optional<uint64_t> StreamingFile::SealOpenEpoch(
    rede::ExecMetricsCounters* metrics) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  if (open_ == nullptr || open_->records == 0) return std::nullopt;
  const uint64_t epoch = open_->epoch;
  SealOpenLocked(metrics);
  return epoch;
}

bool StreamingFile::SealAgedEpoch() {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  if (!OpenEpochAgedLocked(NowMicros())) return false;
  SealOpenLocked(/*metrics=*/nullptr);
  return true;
}

Status StreamingFile::FlushOpLog() {
  for (uint32_t p = 0; p < num_partitions(); ++p) {
    PartitionIngest& ps = *ingest_parts_[p];
    uint64_t flush_bytes = 0;
    {
      std::lock_guard<std::mutex> lock(ingest_mu_);
      flush_bytes = ps.pending_log_bytes;
      ps.pending_log_bytes = 0;
    }
    if (flush_bytes == 0) continue;
    Status logged = cluster_->ChargeReplicatedWrite(
        NodeOfPartition(p), placement().ReplicaNodes(p), flush_bytes);
    if (!logged.ok()) {
      std::lock_guard<std::mutex> lock(ingest_mu_);
      ps.pending_log_bytes += flush_bytes;
      return logged.WithContext("op-log fsync of file '" + name_ +
                                "' partition " + std::to_string(p));
    }
    std::lock_guard<std::mutex> lock(ingest_mu_);
    ++log_pages_flushed_;
  }
  return Status::OK();
}

Lsn StreamingFile::PinSnapshot() {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  const Lsn snapshot = next_lsn_ - 1;
  pins_.insert(snapshot);
  return snapshot;
}

void StreamingFile::UnpinSnapshot(Lsn snapshot) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  auto it = pins_.find(snapshot);
  LH_CHECK_MSG(it != pins_.end(), "unpin of a snapshot never pinned");
  pins_.erase(it);
}

Lsn StreamingFile::MinPinnedSnapshot() const {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  return pins_.empty() ? kLsnLatest : *pins_.begin();
}

std::shared_ptr<EpochBatch> StreamingFile::NextUnmergedEpoch() const {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  return backlog_.empty() ? nullptr : backlog_.front();
}

bool StreamingFile::CanFold(const EpochBatch& batch) const {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  if (backlog_.empty() || backlog_.front().get() != &batch) return false;
  return pins_.empty() || *pins_.begin() >= batch.max_lsn;
}

index::FoldResult StreamingFile::FoldBucket(
    const std::shared_ptr<EpochBatch>& batch, uint32_t partition) {
  LH_CHECK(batch != nullptr && batch->sealed);
  LH_CHECK(partition < ingest_parts_.size());
  PartitionIngest& ps = *ingest_parts_[partition];
  std::unique_lock<std::shared_mutex> lock(ps.mu);
  EpochBatch::PartitionDelta& pd = batch->parts[partition];
  if (pd.folded) return index::FoldResult{};
  index::FoldResult result = index::FoldDeltaBucket(
      partitions_[partition].tree.get(), pd.bucket,
      [](const io::Record& record) { return record.size(); });
  pd.folded = true;
  pd.bucket.clear();
  ps.folded_bytes.fetch_add(result.bytes, std::memory_order_relaxed);
  ps.tail_records.fetch_sub(result.records, std::memory_order_relaxed);
  ps.tail_bytes.fetch_sub(result.bytes, std::memory_order_relaxed);
  return result;
}

Status StreamingFile::FinishEpochMerge(const std::shared_ptr<EpochBatch>& batch,
                                       rede::ExecMetricsCounters* metrics) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  if (backlog_.empty() || backlog_.front() != batch) {
    return Status::InvalidArgument("epochs must merge FIFO: epoch " +
                                   std::to_string(batch->epoch) +
                                   " is not the oldest unmerged epoch of '" +
                                   name_ + "'");
  }
  for (const EpochBatch::PartitionDelta& pd : batch->parts) {
    LH_CHECK_MSG(pd.folded, "FinishEpochMerge before every partition folded");
  }
  backlog_.pop_front();
  merged_lsn_.store(batch->max_lsn, std::memory_order_release);
  epochs_merged_.fetch_add(1, std::memory_order_relaxed);
  if (metrics != nullptr) {
    metrics->epochs_merged.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Lsn StreamingFile::tail_lsn() const {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  return next_lsn_ - 1;
}

uint64_t StreamingFile::backlog_epochs() const {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  return backlog_.size();
}

IngestFileStats StreamingFile::ingest_stats() const {
  IngestFileStats s;
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    s.tail_lsn = next_lsn_ - 1;
    s.backlog_epochs = backlog_.size();
    for (const auto& batch : backlog_) {
      s.backlog_records += batch->records;
      s.backlog_bytes += batch->bytes;
    }
    s.open_epoch_records = open_ != nullptr ? open_->records : 0;
    s.log_pages_flushed = log_pages_flushed_;
  }
  s.merged_lsn = merged_lsn_.load(std::memory_order_acquire);
  s.epochs_sealed = epochs_sealed_.load(std::memory_order_relaxed);
  s.epochs_merged = epochs_merged_.load(std::memory_order_relaxed);
  s.records_appended = streamed_records_.load(std::memory_order_relaxed);
  s.bytes_appended = streamed_bytes_.load(std::memory_order_relaxed);
  s.partitions.reserve(ingest_parts_.size());
  for (const auto& ps : ingest_parts_) {
    PartitionIngestStats p;
    p.records_appended = ps->appended_records.load(std::memory_order_relaxed);
    p.bytes_appended = ps->appended_bytes.load(std::memory_order_relaxed);
    p.unmerged_records = ps->tail_records.load(std::memory_order_relaxed);
    p.unmerged_bytes = ps->tail_bytes.load(std::memory_order_relaxed);
    s.partitions.push_back(p);
  }
  return s;
}

uint64_t StreamingFile::PartitionBytes(uint32_t partition) const {
  const PartitionIngest& ps = *ingest_parts_[partition];
  return partitions_[partition].bytes +
         ps.folded_bytes.load(std::memory_order_relaxed) +
         ps.tail_bytes.load(std::memory_order_relaxed);
}

bool StreamingFile::PartitionHasUnmergedTail(uint32_t partition) const {
  return ingest_parts_[partition]->tail_records.load(
             std::memory_order_relaxed) > 0;
}

std::vector<std::shared_ptr<EpochBatch>> StreamingFile::SnapshotBatches()
    const {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  std::vector<std::shared_ptr<EpochBatch>> batches(backlog_.begin(),
                                                   backlog_.end());
  if (open_ != nullptr) batches.push_back(open_);
  return batches;
}

void StreamingFile::GetInPartitionOnReplicaAsyncAt(
    Lsn snapshot, sim::NodeId compute_node, uint32_t partition,
    uint32_t replica, const std::string& key, std::vector<io::Record>* out,
    sim::CompletionQueue* cq, AsyncReadDone done) {
  Status pre = CheckSealed();
  if (pre.ok()) pre = CheckPartitionAndReplica(partition, replica);
  if (!pre.ok()) {
    done(std::move(pre));
    return;
  }
  access_stats_.lookups.fetch_add(1, std::memory_order_relaxed);
  const size_t before = out->size();
  // Tree matches go to `out` (device-resident: their bytes are charged),
  // filtered tail matches to `tail` in LSN order.
  std::vector<io::Record> tail;
  size_t bytes = 0;
  {
    const auto batches = SnapshotBatches();
    const PartitionIngest& ps = *ingest_parts_[partition];
    std::shared_lock<std::shared_mutex> lock(ps.mu);
    partitions_[partition].tree->Get(key, out);
    for (size_t i = before; i < out->size(); ++i) bytes += (*out)[i].size();
    for (const auto& batch : batches) {
      const EpochBatch::PartitionDelta& pd = batch->parts[partition];
      if (pd.folded) continue;
      auto it = pd.bucket.find(key);
      if (it == pd.bucket.end()) continue;
      for (const index::DeltaEntry<io::Record>& entry : it->second) {
        if (entry.lsn <= snapshot) tail.push_back(entry.value);
      }
    }
  }
  const size_t found = out->size() - before;
  // A lookup that resolves entirely from the tail still pays one
  // page-sized tree probe.
  ChargeRead(ReadKind::kRandom, compute_node, NodeOfReplica(partition, replica),
             1, std::max(bytes, kMinProbeBytes), cq,
             [this, partition, replica, found, before, out, key = &key,
              tail = std::move(tail),
              done = std::move(done)](const sim::Completion& c) mutable {
               Status s = c.status;
               if (s.ok()) {
                 CountEpochRead(partition, replica);
                 access_stats_.records_read.fetch_add(
                     found, std::memory_order_relaxed);
                 ApplyBitRot(c.outcome, out, before);
                 s = VerifyRecords(out, before, *key, nullptr, partition,
                                   replica);
               }
               if (s.ok()) {
                 for (io::Record& record : tail) {
                   out->push_back(std::move(record));
                 }
               }
               done(std::move(s));
             });
}

void StreamingFile::GetBatchInPartitionOnReplicaAsyncAt(
    Lsn snapshot, sim::NodeId compute_node, uint32_t partition,
    uint32_t replica, const std::vector<std::string>& keys,
    std::vector<std::vector<io::Record>>* out, sim::CompletionQueue* cq,
    AsyncReadDone done) {
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
  std::vector<std::vector<io::Record>> tail(keys.size());
  size_t bytes = 0;
  size_t found = 0;
  {
    const auto batches = SnapshotBatches();
    const PartitionIngest& ps = *ingest_parts_[partition];
    std::shared_lock<std::shared_mutex> lock(ps.mu);
    const index::Btree<io::Record>* tree = partitions_[partition].tree.get();
    for (size_t i = 0; i < keys.size(); ++i) {
      tree->Get(keys[i], &(*out)[i]);
      found += (*out)[i].size();
      for (const io::Record& r : (*out)[i]) bytes += r.size();
      for (const auto& batch : batches) {
        const EpochBatch::PartitionDelta& pd = batch->parts[partition];
        if (pd.folded) continue;
        auto it = pd.bucket.find(keys[i]);
        if (it == pd.bucket.end()) continue;
        for (const index::DeltaEntry<io::Record>& entry : it->second) {
          if (entry.lsn <= snapshot) tail[i].push_back(entry.value);
        }
      }
    }
  }
  // Charge BEFORE exposing results, exactly like the base fused path; the
  // tail joins each bucket only after the verification verdict.
  ChargeRead(ReadKind::kBatch, compute_node, NodeOfReplica(partition, replica),
             keys.size(), std::max(bytes, kMinProbeBytes), cq,
             [this, partition, replica, found, out, keys = &keys,
              tail = std::move(tail),
              done = std::move(done)](const sim::Completion& c) mutable {
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
               if (s.ok()) {
                 for (size_t i = 0; i < tail.size(); ++i) {
                   for (io::Record& record : tail[i]) {
                     (*out)[i].push_back(std::move(record));
                   }
                 }
               }
               done(std::move(s));
             });
}

Status StreamingFile::ScanPartitionKeyedAt(Lsn snapshot,
                                           sim::NodeId compute_node,
                                           uint32_t partition,
                                           const KeyedRecordVisitor& visit) {
  LH_RETURN_NOT_OK(CheckSealed());
  if (partition >= partitions_.size()) {
    return Status::OutOfRange("partition out of range in file '" + name_ +
                              "'");
  }
  // Collect both sides under the partition's shared lock: the tree in key
  // order, the filtered tail as key -> records in LSN order.
  std::vector<std::pair<std::string, io::Record>> merged;
  std::map<std::string, std::vector<io::Record>> tail;
  uint64_t merged_bytes = 0;
  {
    const auto batches = SnapshotBatches();
    const PartitionIngest& ps = *ingest_parts_[partition];
    std::shared_lock<std::shared_mutex> lock(ps.mu);
    partitions_[partition].tree->Scan(
        [&](const std::string& key, const io::Record& record) {
          merged_bytes += record.size();
          merged.emplace_back(key, record);
          return true;
        });
    for (const auto& batch : batches) {
      const EpochBatch::PartitionDelta& pd = batch->parts[partition];
      if (pd.folded) continue;
      for (const auto& [key, entries] : pd.bucket) {
        for (const index::DeltaEntry<io::Record>& entry : entries) {
          if (entry.lsn <= snapshot) tail[key].push_back(entry.value);
        }
      }
    }
  }
  // Device side: the base scan's failover and read repair, over the
  // MERGED bytes (the tail is memory-resident).
  sim::ReadOutcome outcome;
  LH_RETURN_NOT_OK(ChargeScan(compute_node, partition, merged_bytes, &outcome));
  // Deliver a two-way merge by key. Ties emit tree records first — their
  // LSNs are strictly older than any unmerged record of the same key, so
  // this IS append order, bit-identical to a quiesced scan.
  const bool deliver_rot = outcome.corrupted && !verify_checksums();
  const uint64_t victim =
      deliver_rot && !merged.empty()
          ? outcome.corruption_entropy % merged.size()
          : 0;
  uint64_t delivered = 0;
  bool stop = false;
  auto emit = [&](const std::string& key, const io::Record& record,
                  bool rotten) {
    ++delivered;
    if (rotten) {
      return visit(key, record.CorruptedCopy(outcome.corruption_entropy));
    }
    return visit(key, record);
  };
  size_t i = 0;
  auto it = tail.begin();
  while (!stop && (i < merged.size() || it != tail.end())) {
    if (it == tail.end() ||
        (i < merged.size() && merged[i].first <= it->first)) {
      stop = !emit(merged[i].first, merged[i].second,
                   deliver_rot && i == victim);
      ++i;
    } else {
      for (const io::Record& record : it->second) {
        if ((stop = !emit(it->first, record, false))) break;
      }
      ++it;
    }
  }
  access_stats_.records_scanned.fetch_add(delivered,
                                          std::memory_order_relaxed);
  return Status::OK();
}

void StreamingFile::GetInPartitionOnReplicaAsync(
    sim::NodeId compute_node, uint32_t partition, uint32_t replica,
    const std::string& key, std::vector<io::Record>* out,
    sim::CompletionQueue* cq, AsyncReadDone done) {
  GetInPartitionOnReplicaAsyncAt(kLsnLatest, compute_node, partition, replica,
                                 key, out, cq, std::move(done));
}

void StreamingFile::GetBatchInPartitionOnReplicaAsync(
    sim::NodeId compute_node, uint32_t partition, uint32_t replica,
    const std::vector<std::string>& keys,
    std::vector<std::vector<io::Record>>* out, sim::CompletionQueue* cq,
    AsyncReadDone done) {
  GetBatchInPartitionOnReplicaAsyncAt(kLsnLatest, compute_node, partition,
                                      replica, keys, out, cq, std::move(done));
}

Status StreamingFile::ScanPartition(sim::NodeId compute_node,
                                    uint32_t partition,
                                    const io::RecordVisitor& visit) {
  return ScanPartitionKeyedAt(
      kLsnLatest, compute_node, partition,
      [&](const std::string&, const io::Record& record) {
        return visit(record);
      });
}

}  // namespace lakeharbor::ingest
