#include "sim/cluster.h"

namespace lakeharbor::sim {

namespace {

uint32_t ResolveMaxNodes(const ClusterOptions& options) {
  if (options.max_nodes != 0) {
    LH_CHECK_MSG(options.max_nodes >= options.num_nodes,
                 "max_nodes below initial num_nodes");
    return options.max_nodes;
  }
  const uint32_t doubled = options.num_nodes * 2;
  return doubled > 64 ? doubled : 64;
}

}  // namespace

Cluster::Cluster(ClusterOptions options)
    : options_(options),
      nodes_(ResolveMaxNodes(options)),
      node_down_(ResolveMaxNodes(options)),
      node_removed_(ResolveMaxNodes(options)),
      timing_enabled_(options.disk.timing_enabled),
      // Remote async charges: when the disk leg lands, launch the network
      // leg; when the network leg lands, deliver the user's completion.
      chain_disk_cq_([this](const Completion& c) { OnChainDiskDone(c); }),
      chain_net_cq_([](const Completion& c) { OnChainNetDone(c); }),
      timers_(std::make_unique<TimerService>()) {
  LH_CHECK_MSG(options.num_nodes > 0, "cluster needs at least one node");
  for (NodeId id = 0; id < options.num_nodes; ++id) {
    InitNodeSlot(id);
  }
  network_ = std::make_unique<Network>(options.network);
  network_->SetTimerService(timers_.get());
  num_nodes_.store(options.num_nodes, std::memory_order_release);
}

void Cluster::OnChainDiskDone(const Completion& c) {
  auto* op = reinterpret_cast<ChainOp*>(c.tag);
  if (!c.status.ok()) {
    CompletionQueue* user_cq = op->user_cq;
    Completion done{op->user_tag, c.status, ReadOutcome()};
    delete op;
    user_cq->Push(std::move(done));
    return;
  }
  // Park the disk leg's corruption verdict on the op: the network leg
  // transfers the (already rotten) bytes and the final completion must
  // still report them rotten.
  op->outcome = c.outcome;
  network_->SubmitTransfer(op->bytes, reinterpret_cast<uint64_t>(op),
                           &chain_net_cq_);
}

void Cluster::OnChainNetDone(const Completion& c) {
  auto* op = reinterpret_cast<ChainOp*>(c.tag);
  CompletionQueue* user_cq = op->user_cq;
  Completion done{op->user_tag, c.status, op->outcome};
  delete op;
  user_cq->Push(std::move(done));
}

void Cluster::InitNodeSlot(NodeId id) {
  DiskOptions disk = options_.disk;
  // Independent per-node fault streams from one cluster-level seed.
  disk.faults.seed = options_.disk.faults.seed + id;
  disk.timing_enabled = timing_enabled_;
  nodes_[id] = std::make_unique<Node>(id, disk);
  nodes_[id]->disk().SetTimerService(timers_.get());
  if (fault_knobs_set_) {
    FaultOptions per_node = current_disk_faults_;
    per_node.seed = current_disk_faults_.seed + id;
    nodes_[id]->disk().ConfigureFaults(per_node);
  }
}

StatusOr<NodeId> Cluster::AddNode() {
  std::lock_guard<std::mutex> lock(membership_mutex_);
  const uint32_t id = num_nodes_.load(std::memory_order_relaxed);
  if (id >= nodes_.size()) {
    return Status::ResourceExhausted(
        "cluster at max_nodes capacity (" + std::to_string(nodes_.size()) +
        "); raise ClusterOptions::max_nodes");
  }
  InitNodeSlot(id);
  // Release-publish AFTER the slot is fully constructed: a reader that
  // observes num_nodes() > id is guaranteed to see the node.
  num_nodes_.store(id + 1, std::memory_order_release);
  return static_cast<NodeId>(id);
}

Status Cluster::RemoveNode(NodeId id) {
  std::lock_guard<std::mutex> lock(membership_mutex_);
  if (id >= num_nodes_.load(std::memory_order_relaxed)) {
    return Status::InvalidArgument("RemoveNode: unknown node " +
                                   std::to_string(id));
  }
  if (node_removed_[id].load(std::memory_order_relaxed)) {
    return Status::InvalidArgument("RemoveNode: node " + std::to_string(id) +
                                   " already removed");
  }
  if (num_active_nodes() <= 1) {
    return Status::InvalidArgument(
        "RemoveNode: refusing to remove the last active node");
  }
  // Order matters for readers that consult NodeIsDown before charging: the
  // disk rejects first, then the membership flag flips. Either way the
  // node can no longer serve.
  nodes_[id]->disk().SetOutage(true);
  node_removed_[id].store(true, std::memory_order_release);
  return Status::OK();
}

std::vector<NodeId> Cluster::ActiveNodeIds() const {
  const uint32_t n = num_nodes();
  std::vector<NodeId> ids;
  ids.reserve(n);
  for (NodeId id = 0; id < n; ++id) {
    if (!node_removed_[id].load(std::memory_order_acquire)) ids.push_back(id);
  }
  return ids;
}

uint32_t Cluster::num_active_nodes() const {
  const uint32_t n = num_nodes();
  uint32_t active = 0;
  for (NodeId id = 0; id < n; ++id) {
    if (!node_removed_[id].load(std::memory_order_acquire)) ++active;
  }
  return active;
}

Status Cluster::ChargeRandomRead(NodeId compute_node, NodeId storage_node,
                                 size_t bytes, ReadOutcome* outcome) {
  LH_CHECK(storage_node < num_nodes());
  LH_RETURN_NOT_OK(nodes_[storage_node]->disk().RandomRead(bytes, outcome));
  if (compute_node != storage_node) {
    LH_RETURN_NOT_OK(network_->Transfer(bytes));
  }
  return Status::OK();
}

Status Cluster::ChargeBatchRead(NodeId compute_node, NodeId storage_node,
                                size_t ops, size_t bytes,
                                ReadOutcome* outcome) {
  LH_CHECK(storage_node < num_nodes());
  if (ops == 0) return Status::OK();
  LH_RETURN_NOT_OK(
      nodes_[storage_node]->disk().BatchRandomRead(ops, bytes, outcome));
  if (compute_node != storage_node) {
    LH_RETURN_NOT_OK(network_->Transfer(bytes));
  }
  return Status::OK();
}

Status Cluster::ChargeSequentialRead(NodeId compute_node, NodeId storage_node,
                                     size_t bytes, ReadOutcome* outcome) {
  LH_CHECK(storage_node < num_nodes());
  LH_RETURN_NOT_OK(
      nodes_[storage_node]->disk().SequentialRead(bytes, outcome));
  if (compute_node != storage_node) {
    LH_RETURN_NOT_OK(network_->Transfer(bytes));
  }
  return Status::OK();
}

Status Cluster::ChargeWrite(NodeId compute_node, NodeId storage_node,
                            size_t bytes) {
  LH_CHECK(storage_node < num_nodes());
  if (compute_node != storage_node) {
    LH_RETURN_NOT_OK(network_->Transfer(bytes));
  }
  return nodes_[storage_node]->disk().Write(bytes);
}

Status Cluster::ChargeReplicatedWrite(NodeId compute_node,
                                      const std::vector<NodeId>& replicas,
                                      size_t bytes) {
  for (NodeId storage_node : replicas) {
    // A removed node cannot accept writes — surface it as kUnavailable
    // with the node named, instead of silently charging a ghost disk.
    if (storage_node < num_nodes() && NodeIsRemoved(storage_node)) {
      return Status::Unavailable("replica write to removed node " +
                                 std::to_string(storage_node));
    }
    LH_RETURN_NOT_OK(
        ChargeWrite(compute_node, storage_node, bytes)
            .WithContext("replica write to node " +
                         std::to_string(storage_node)));
  }
  return Status::OK();
}

void Cluster::SubmitChargeRandomRead(NodeId compute_node, NodeId storage_node,
                                     size_t bytes, uint64_t tag,
                                     CompletionQueue* cq) {
  LH_CHECK(storage_node < num_nodes());
  if (compute_node == storage_node) {
    // Local fast path: the disk completion IS the user completion.
    nodes_[storage_node]->disk().SubmitRandomRead(bytes, tag, cq);
    return;
  }
  auto* op = new ChainOp{compute_node, storage_node, bytes, tag, cq, ReadOutcome()};
  nodes_[storage_node]->disk().SubmitRandomRead(
      bytes, reinterpret_cast<uint64_t>(op), &chain_disk_cq_);
}

void Cluster::SubmitChargeBatchRead(NodeId compute_node, NodeId storage_node,
                                    size_t ops, size_t bytes, uint64_t tag,
                                    CompletionQueue* cq) {
  LH_CHECK(storage_node < num_nodes());
  if (ops == 0) {
    cq->Push(Completion{tag, Status::OK(), ReadOutcome()});
    return;
  }
  if (compute_node == storage_node) {
    nodes_[storage_node]->disk().SubmitBatchRandomRead(ops, bytes, tag, cq);
    return;
  }
  auto* op = new ChainOp{compute_node, storage_node, bytes, tag, cq, ReadOutcome()};
  nodes_[storage_node]->disk().SubmitBatchRandomRead(
      ops, bytes, reinterpret_cast<uint64_t>(op), &chain_disk_cq_);
}

void Cluster::SubmitChargeSequentialRead(NodeId compute_node,
                                         NodeId storage_node, size_t bytes,
                                         uint64_t tag, CompletionQueue* cq) {
  LH_CHECK(storage_node < num_nodes());
  if (compute_node == storage_node) {
    nodes_[storage_node]->disk().SubmitSequentialRead(bytes, tag, cq);
    return;
  }
  auto* op = new ChainOp{compute_node, storage_node, bytes, tag, cq, ReadOutcome()};
  nodes_[storage_node]->disk().SubmitSequentialRead(
      bytes, reinterpret_cast<uint64_t>(op), &chain_disk_cq_);
}

Status Cluster::ChargeMessage(NodeId from, NodeId to, size_t bytes) {
  if (from == to) return Status::OK();
  if (NodeIsDown(from) || NodeIsDown(to)) {
    return Status::Unavailable("message to/from node in outage window");
  }
  return network_->Transfer(bytes);
}

ResourceTotals Cluster::TotalStats() const {
  ResourceTotals total;
  const uint32_t n = num_nodes();
  for (uint32_t id = 0; id < n; ++id) {
    total.Merge(nodes_[id]->disk().stats());
  }
  total.Merge(network_->stats());
  return total;
}

void Cluster::SetTimingEnabled(bool enabled) {
  std::lock_guard<std::mutex> lock(membership_mutex_);
  timing_enabled_ = enabled;
  const uint32_t n = num_nodes();
  for (uint32_t id = 0; id < n; ++id) {
    nodes_[id]->disk().SetTimingEnabled(enabled);
  }
  network_->SetTimingEnabled(enabled);
}

void Cluster::ConfigureDiskFaults(const FaultOptions& faults) {
  std::lock_guard<std::mutex> lock(membership_mutex_);
  current_disk_faults_ = faults;
  fault_knobs_set_ = true;
  const uint32_t n = num_nodes();
  for (uint32_t id = 0; id < n; ++id) {
    FaultOptions per_node = faults;
    per_node.seed = faults.seed + id;
    nodes_[id]->disk().ConfigureFaults(per_node);
  }
}

void Cluster::ConfigureNetworkFaults(const FaultOptions& faults) {
  network_->ConfigureFaults(faults);
}

void Cluster::SetNodeOutage(NodeId id, bool down) {
  LH_CHECK(id < num_nodes());
  node_down_[id].store(down, std::memory_order_relaxed);
  nodes_[id]->disk().SetOutage(down);
}

void Cluster::ResetStats() {
  const uint32_t n = num_nodes();
  for (uint32_t id = 0; id < n; ++id) {
    nodes_[id]->disk().mutable_stats().Reset();
  }
  network_->mutable_stats().Reset();
}

}  // namespace lakeharbor::sim
