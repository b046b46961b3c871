#include "sim/cluster.h"

#include <span>
#include <string>
#include <utility>

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

/// One replicated write in flight. Each replica is a hop (when remote)
/// and then a disk write: the hop lands on `hops_` and the write on
/// `writes_`, both tagged with the replica's node. The submitter holds one
/// reference and each submitted replica another; the last release delivers
/// the first error to land, or OK. A blocking write lives on its caller's
/// stack, an async one on the heap (`owned`), deleted by the last release.
class ReplicatedWrite {
 public:
  ReplicatedWrite(Cluster* cluster, NodeId compute, size_t bytes,
                  uint64_t tag, CompletionQueue* cq, bool owned)
      : cluster_(cluster),
        compute_(compute),
        bytes_(bytes),
        tag_(tag),
        cq_(cq),
        owned_(owned) {}
  LH_DISALLOW_COPY_AND_ASSIGN(ReplicatedWrite);

  /// The blocking write: submit every replica, wait once for the last.
  /// The write's state stays on this stack until the wait returns.
  static Status Run(Cluster* cluster, NodeId compute,
                    std::span<const NodeId> replicas, size_t bytes) {
    CompletionLatch latch;
    ReplicatedWrite write(cluster, compute, bytes, 0, latch.queue(),
                          /*owned=*/false);
    write.Start(replicas);
    return latch.Wait().status;
  }

  /// Submit the replicas in order. A removed replica, or a failure that
  /// has landed by the time a submission returns (untimed, the whole
  /// replica has), stops the rest, as a serial loop would.
  void Start(std::span<const NodeId> replicas) {
    for (NodeId node : replicas) {
      // A removed node cannot accept writes — surface it as kUnavailable
      // with the node named, instead of silently charging a ghost disk.
      if (node < cluster_->num_nodes() && cluster_->NodeIsRemoved(node)) {
        Fail(Status::Unavailable("replica write to removed node " +
                                 std::to_string(node)));
        break;
      }
      LH_CHECK(node < cluster_->num_nodes());
      pending_.fetch_add(1, std::memory_order_relaxed);
      if (node == compute_) {
        cluster_->node(node).disk().SubmitWrite(bytes_, node, &writes_);
      } else {
        cluster_->network().SubmitTransfer(bytes_, node, &hops_);
      }
      if (failed_.load(std::memory_order_relaxed)) break;
    }
    Release();  // the submitter's reference
  }

 private:
  void OnHop(const Completion& c) {
    if (!c.status.ok()) {
      OnWrite(c);
      return;
    }
    cluster_->node(static_cast<NodeId>(c.tag))
        .disk()
        .SubmitWrite(bytes_, c.tag, &writes_);
  }

  void OnWrite(const Completion& c) {
    if (!c.status.ok()) {
      Fail(c.status.WithContext("replica write to node " +
                                std::to_string(c.tag)));
    }
    Release();
  }

  void Fail(Status s) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (status_.ok()) status_ = std::move(s);
    failed_.store(true, std::memory_order_relaxed);
  }

  void Release() {
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    CompletionQueue* out = cq_;
    Completion done{tag_, std::move(status_), ReadOutcome()};
    if (owned_) delete this;
    out->Push(std::move(done));
  }

  Cluster* const cluster_;
  const NodeId compute_;
  const size_t bytes_;
  const uint64_t tag_;
  CompletionQueue* const cq_;
  const bool owned_;
  std::atomic<size_t> pending_{1};
  std::atomic<bool> failed_{false};
  std::mutex mutex_;
  Status status_;  // guarded by mutex_
  CompletionQueue hops_{[this](const Completion& c) { OnHop(c); }};
  CompletionQueue writes_{[this](const Completion& c) { OnWrite(c); }};
};

}  // namespace

Cluster::Cluster(ClusterOptions options)
    : options_(options),
      nodes_(ResolveMaxNodes(options)),
      node_down_(ResolveMaxNodes(options)),
      node_removed_(ResolveMaxNodes(options)),
      timing_enabled_(options.disk.timing_enabled),
      // Remote reads: when the disk leg lands, launch the hop; when the
      // hop lands, deliver the caller's completion.
      chain_disk_cq_([this](const Completion& c) { OnChainDiskDone(c); }),
      chain_net_cq_([](const Completion& c) {
        FinishRead(reinterpret_cast<ReadOp*>(c.tag), c.status);
      }),
      timers_(std::make_unique<TimerService>()) {
  LH_CHECK_MSG(options.num_nodes > 0, "cluster needs at least one node");
  for (NodeId id = 0; id < options.num_nodes; ++id) {
    InitNodeSlot(id);
  }
  network_ = std::make_unique<Network>(options.network, timers_.get());
  num_nodes_.store(options.num_nodes, std::memory_order_release);
}

void Cluster::OnChainDiskDone(const Completion& c) {
  auto* op = reinterpret_cast<ReadOp*>(c.tag);
  if (!c.status.ok()) {
    FinishRead(op, c.status);
    return;
  }
  op->outcome = c.outcome;
  network_->SubmitTransfer(op->bytes, c.tag, &chain_net_cq_);
}

void Cluster::FinishRead(ReadOp* op, Status status) {
  CompletionQueue* cq = op->cq;
  Completion done{op->tag, std::move(status), op->outcome};
  if (op->owned) delete op;
  cq->Push(std::move(done));
}

void Cluster::InitNodeSlot(NodeId id) {
  DiskOptions disk = options_.disk;
  // Independent per-node fault streams from one cluster-level seed.
  disk.faults.seed = options_.disk.faults.seed + id;
  disk.timing_enabled = timing_enabled_;
  nodes_[id] = std::make_unique<Node>(id, disk, timers_.get());
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
  return ChargeRead({ReadKind::kRandom, compute_node, storage_node, 1, bytes},
                    outcome);
}

Status Cluster::ChargeBatchRead(NodeId compute_node, NodeId storage_node,
                                size_t ops, size_t bytes,
                                ReadOutcome* outcome) {
  if (ops == 0) return Status::OK();
  return ChargeRead({ReadKind::kBatch, compute_node, storage_node, ops, bytes},
                    outcome);
}

Status Cluster::ChargeSequentialRead(NodeId compute_node, NodeId storage_node,
                                     size_t bytes, ReadOutcome* outcome) {
  return ChargeRead(
      {ReadKind::kSequential, compute_node, storage_node, 1, bytes}, outcome);
}

void Cluster::SubmitChargeRandomRead(NodeId compute_node, NodeId storage_node,
                                     size_t bytes, uint64_t tag,
                                     CompletionQueue* cq) {
  SubmitRead({ReadKind::kRandom, compute_node, storage_node, 1, bytes, tag, cq});
}

void Cluster::SubmitChargeBatchRead(NodeId compute_node, NodeId storage_node,
                                    size_t ops, size_t bytes, uint64_t tag,
                                    CompletionQueue* cq) {
  if (ops == 0) {
    cq->Push(Completion{tag, Status::OK(), ReadOutcome()});
    return;
  }
  SubmitRead(
      {ReadKind::kBatch, compute_node, storage_node, ops, bytes, tag, cq});
}

void Cluster::SubmitChargeSequentialRead(NodeId compute_node,
                                         NodeId storage_node, size_t bytes,
                                         uint64_t tag, CompletionQueue* cq) {
  SubmitRead(
      {ReadKind::kSequential, compute_node, storage_node, 1, bytes, tag, cq});
}

Status Cluster::ChargeRead(ReadOp op, ReadOutcome* outcome) {
  return SubmitAndWait(
      [&](CompletionQueue* cq) {
        op.cq = cq;
        StartRead(&op);
      },
      outcome);
}

void Cluster::SubmitRead(ReadOp op) {
  if (op.compute == op.storage) {
    StartRead(&op);  // the disk's completion is the caller's
    return;
  }
  auto* chained = new ReadOp(op);
  chained->owned = true;
  StartRead(chained);
}

void Cluster::StartRead(ReadOp* op) {
  LH_CHECK(op->storage < num_nodes());
  uint64_t tag = op->tag;
  CompletionQueue* cq = op->cq;
  if (op->compute != op->storage) {
    tag = reinterpret_cast<uint64_t>(op);
    cq = &chain_disk_cq_;
  }
  Disk& disk = nodes_[op->storage]->disk();
  switch (op->kind) {
    case ReadKind::kRandom:
      disk.SubmitRandomRead(op->bytes, tag, cq);
      break;
    case ReadKind::kBatch:
      disk.SubmitBatchRandomRead(op->ops, op->bytes, tag, cq);
      break;
    case ReadKind::kSequential:
      disk.SubmitSequentialRead(op->bytes, tag, cq);
      break;
  }
}

Status Cluster::ChargeWrite(NodeId compute_node, NodeId storage_node,
                            size_t bytes) {
  return ReplicatedWrite::Run(this, compute_node, {&storage_node, 1}, bytes);
}

Status Cluster::ChargeReplicatedWrite(NodeId compute_node,
                                      const std::vector<NodeId>& replicas,
                                      size_t bytes) {
  return ReplicatedWrite::Run(this, compute_node, replicas, bytes);
}

void Cluster::SubmitChargeReplicatedWrite(NodeId compute_node,
                                          const std::vector<NodeId>& replicas,
                                          size_t bytes, uint64_t tag,
                                          CompletionQueue* cq) {
  (new ReplicatedWrite(this, compute_node, bytes, tag, cq, /*owned=*/true))
      ->Start(replicas);
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
