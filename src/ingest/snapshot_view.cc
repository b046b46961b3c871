#include "ingest/snapshot_view.h"

#include <utility>

namespace lakeharbor::ingest {

void SnapshotView::GetInPartitionOnReplicaAsync(
    sim::NodeId compute_node, uint32_t partition, uint32_t replica,
    const std::string& key, std::vector<io::Record>* out,
    sim::CompletionQueue* cq, AsyncReadDone done) {
  base_->GetInPartitionOnReplicaAsyncAt(snapshot_, compute_node, partition,
                                        replica, key, out, cq,
                                        std::move(done));
}

void SnapshotView::GetBatchInPartitionOnReplicaAsync(
    sim::NodeId compute_node, uint32_t partition, uint32_t replica,
    const std::vector<std::string>& keys,
    std::vector<std::vector<io::Record>>* out, sim::CompletionQueue* cq,
    AsyncReadDone done) {
  base_->GetBatchInPartitionOnReplicaAsyncAt(snapshot_, compute_node,
                                             partition, replica, keys, out,
                                             cq, std::move(done));
}

Status SnapshotView::ScanPartition(sim::NodeId compute_node,
                                   uint32_t partition,
                                   const io::RecordVisitor& visit) {
  return base_->ScanPartitionKeyedAt(
      snapshot_, compute_node, partition,
      [&](const std::string&, const io::Record& record) {
        return visit(record);
      });
}

std::shared_ptr<SnapshotView> MakeSnapshotView(
    std::shared_ptr<StreamingFile> base) {
  LH_CHECK(base != nullptr);
  const Lsn snapshot = base->PinSnapshot();
  return std::make_shared<SnapshotView>(std::move(base), snapshot);
}

}  // namespace lakeharbor::ingest
